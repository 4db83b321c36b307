"""Bid selection: quantiles, sweep mechanics, crossing refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hes_regkit.bidding as bidding
from hes_regkit import (
    BracketError,
    SignalArchive,
    SweepGrid,
    expected_revenue,
    mileage,
    quantile_lower,
    rt_dispatch_batch,
    score_samples,
    solve_bid,
    synth_signal,
)
from hes_regkit.cli import _curve_points
from helpers import DT_2S, reference_market, reference_system, same_bits


def square_archive(n_windows=4, amplitude=0.8, n=360):
    return SignalArchive(
        np.stack([
            synth_signal("square-wave", n, DT_2S, s, amplitude=amplitude, period=2).samples
            for s in range(n_windows)
        ]),
        DT_2S,
    )


class TestQuantile:
    def test_order_statistic_convention(self):
        scores = np.array([0.9, 0.5, 0.7, 0.8, 0.6])
        # floor(0.2 * 5) = 1 -> second-smallest
        assert quantile_lower(scores, 0.8) == 0.6
        # floor(0.02 * 5) = 0 -> minimum
        assert quantile_lower(scores, 0.99) == 0.5

    def test_ten_samples_at_ninety(self):
        scores = np.linspace(0.1, 1.0, 10)
        assert quantile_lower(scores, 0.9) == pytest.approx(0.2)

    def test_decimal_products_hit_exact_index(self):
        # (1 - 0.9) * 10 is 0.9999... in binary; must still index 1, not 0
        scores = np.arange(10.0)
        assert quantile_lower(scores, 0.9) == 1.0
        assert quantile_lower(np.arange(5.0), 0.8) == 1.0

    def test_uniform_monte_carlo_matches_analytic(self):
        rng = np.random.default_rng(42)
        samples = rng.uniform(0.0, 1.0, 1000)
        z = quantile_lower(samples, 0.9)
        assert abs(z - 0.10) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_lower(np.array([0.5]), 1.0)
        with pytest.raises(ValueError):
            quantile_lower(np.array([]), 0.9)


class TestScoreSamples:
    def test_zero_windows_dropped(self):
        arch = SignalArchive(np.vstack([square_archive().samples, np.zeros(360)]), DT_2S)
        scores = score_samples(reference_system(), 8.0, arch)
        assert scores.shape == (4,)
        assert np.all(scores == 1.0)

    def test_scores_the_archive_matrix_itself_when_every_window_moves(self):
        arch = square_archive()
        assert bidding._moving_windows(arch)[0] is arch.samples
        flat = SignalArchive(np.vstack([arch.samples, np.zeros(360)]), DT_2S)
        matrix, l1 = bidding._moving_windows(flat)
        assert matrix.tobytes() == arch.samples.tobytes()
        assert (flat.n_windows, flat.n_windows - l1.size) == (5, 1)

    def test_all_zero_archive_rejected(self):
        arch = SignalArchive(np.zeros((2, 16)), DT_2S)
        with pytest.raises(ValueError, match="nonzero"):
            score_samples(reference_system(), 8.0, arch)

    def test_analytic_square_wave_scores(self):
        # above the 8 MW reach the per-step clip loses (C*a - 8); the score
        # is 1 - (C*a - 8)+/(C*a) while SoC stays interior
        cfg = reference_system()
        arch = square_archive(amplitude=0.8)
        for c in (5.0, 10.0, 12.5, 15.0):
            expect = 1.0 - max(0.0, 0.8 * c - 8.0) / (0.8 * c)
            scores = score_samples(cfg, c, arch)
            assert scores == pytest.approx(np.full(4, expect), abs=1e-12)


class TestSolveBid:
    def setup_method(self):
        self.cfg = reference_system()
        self.market = reference_market()
        self.sweep = SweepGrid(c_lo=1.0, c_hi=16.0, coarse_step=0.25, refine_tol=0.01)

    def test_square_wave_crossing_matches_analytic(self):
        arch = square_archive(amplitude=0.8)
        sol = solve_bid(self.cfg, arch, self.market, self.sweep)
        # z(C) = x_p(C) here (identical windows); crossing at 8/(0.8*0.75)
        assert abs(sol.c_bar - 40.0 / 3.0) <= self.sweep.refine_tol + 1e-9
        assert sol.c_star == min(sol.c_hat, self.market.c_max)
        assert sol.diagnostics.upper_bracket_z < self.market.x_p_min
        assert sol.diagnostics.z_monotonicity_violations == ()
        assert sol.point_at(sol.c_bar).z_gamma >= self.market.x_p_min

    def test_market_cap_binds_exactly(self):
        arch = square_archive(amplitude=0.8)
        market = reference_market(c_max=5.0)
        sol = solve_bid(self.cfg, arch, market, self.sweep)
        assert sol.c_star == 5.0
        assert sol.point_at(5.0).c == 5.0  # capped bid has an evaluated point

    def test_market_cap_off_the_sweep_gets_its_own_point(self):
        # 5.1 is on neither the coarse grid nor the refinement's bracket
        arch = square_archive(amplitude=0.8)
        sol = solve_bid(self.cfg, arch, reference_market(c_max=5.1), self.sweep)
        assert sol.c_star == 5.1 < sol.c_hat
        coarse = set(self.sweep.coarse_points())
        assert [pt.c for pt in sol.curve if pt.c not in coarse and pt.c < 13.0] == [5.1]
        pt = sol.point_at(5.1)
        assert same_bits(pt.scores, score_samples(self.cfg, 5.1, arch))
        assert pt.objective == 5.1 * pt.mean_xp
        with pytest.raises(KeyError, match=r"no curve point at c=5\.05"):
            sol.point_at(5.05)

    def test_curve_is_sorted_and_consistent(self):
        arch = square_archive(amplitude=0.8)
        sol = solve_bid(self.cfg, arch, self.market, self.sweep)
        cs = [pt.c for pt in sol.curve]
        assert cs == sorted(cs)
        for pt in sol.curve:
            assert pt.objective == pytest.approx(pt.c * pt.mean_xp, rel=1e-12)
            assert 0.0 <= pt.prob_compliant <= 1.0

    def test_bracket_error_low_end(self):
        arch = square_archive(amplitude=0.8)
        sweep = SweepGrid(c_lo=14.0, c_hi=16.0)  # already non-compliant at 14
        with pytest.raises(BracketError, match="lower c_lo"):
            solve_bid(self.cfg, arch, self.market, sweep)

    def test_bracket_error_high_end(self):
        arch = square_archive(amplitude=0.8)
        sweep = SweepGrid(c_lo=1.0, c_hi=9.0)  # still compliant at 9
        with pytest.raises(BracketError, match="raise c_hi"):
            solve_bid(self.cfg, arch, self.market, sweep)

    def test_expected_revenue_consistent(self):
        arch = square_archive(amplitude=0.8)
        sol = solve_bid(self.cfg, arch, self.market, self.sweep)
        rev = expected_revenue(sol, arch, self.market)
        pt = sol.point_at(sol.c_star)
        assert rev.capacity_only == pytest.approx(
            sol.c_star * pt.mean_xp * self.market.lambda_c, rel=1e-12
        )
        # identical windows: mean payment equals the single-window payment
        miles = 0.8 * 2 * 359
        expect = sol.c_star * pt.mean_xp * (40.0 + 10.0 * miles)
        assert rev.with_mileage == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("n", [7, 8, 129, 1000, 3601])
    def test_expected_revenue_matches_window_by_window(self, n):
        moving = [synth_signal("energy-neutral-random", n, DT_2S, s).samples for s in range(5)]
        sweep = SweepGrid(c_lo=1.0, c_hi=30.0, coarse_step=1.0, refine_tol=0.05)
        for flat_at in (0, 2, 5):  # the flat window first, in the middle, last
            windows = list(moving)
            windows.insert(flat_at, np.zeros(n))
            arch = SignalArchive(np.stack(windows), DT_2S)
            sol = solve_bid(self.cfg, arch, self.market, sweep)
            rev = expected_revenue(sol, arch, self.market)
            # every curve point scores the same five moving windows
            assert sol.diagnostics.zero_signal_windows == 1
            assert all(pt.scores.size == 5 for pt in sol.curve)
            # the payment summed one window at a time, zero-signal window dropped
            l1 = np.array([float(np.sum(np.abs(w.samples))) for w in arch.windows])
            miles = np.array([mileage(w.samples) for w in arch.windows])[l1 > 0.0]
            pt = sol.point_at(sol.c_star)
            rate = self.market.lambda_c + self.market.lambda_m * miles
            assert rev.with_mileage == float((sol.c_star * pt.scores * rate).mean())


def sequential_solve(cfg, archive, market, sweep):
    """Bid selection as plain Python, one rt_dispatch_batch per capacity:
    coarse points in order up to the first non-compliant one, then bisection.
    Returns ({c: scores}, c_bar, c_hat, c_star, diagnostics as a dict)."""
    matrix = archive.samples
    l1 = np.sum(np.abs(matrix), axis=1)
    valid = l1 > 0.0
    matrix, l1 = matrix[valid], l1[valid]
    scores = {}

    def z(c):
        if c not in scores:
            err = rt_dispatch_batch(cfg, c, matrix, archive.dt).err_sums
            scores[c] = 1.0 - err / (c * l1)
        return quantile_lower(scores[c], market.gamma)

    pts = [float(c) for c in sweep.coarse_points()]
    if z(pts[0]) < market.x_p_min:
        raise BracketError(
            f"z_gamma({pts[0]:g}) = {z(pts[0]):.6g} is already below "
            f"x_p_min = {market.x_p_min:g}; lower c_lo"
        )
    lo = hi = None
    for c in pts:
        if z(c) < market.x_p_min:
            hi = c
            break
        lo = c
    if hi is None:
        raise BracketError(
            f"z_gamma({pts[-1]:g}) = {z(pts[-1]):.6g} still clears "
            f"x_p_min = {market.x_p_min:g}; raise c_hi"
        )
    iterations = 0
    while hi - lo > sweep.refine_tol:
        mid = 0.5 * (lo + hi)
        if z(mid) >= market.x_p_min:
            lo = mid
        else:
            hi = mid
        iterations += 1
    c_bar = lo
    compliant = [c for c in sorted(scores) if c <= c_bar]
    c_hat = max(compliant, key=lambda c: (c * float(scores[c].mean()), -c))
    c_star = min(c_hat, market.c_max)
    z(c_star)
    cs = sorted(scores)
    zs = [z(c) for c in cs]
    diagnostics = {
        "n_windows": int(valid.size),
        "zero_signal_windows": int(np.sum(~valid)),
        "coarse_points": len(pts),
        "refine_iterations": iterations,
        "upper_bracket_c": hi,
        "upper_bracket_z": z(hi),
        "z_monotonicity_violations": tuple(
            b for a, b, za, zb in zip(cs, cs[1:], zs, zs[1:]) if zb > za + 1e-9
        ),
    }
    return scores, c_bar, c_hat, c_star, diagnostics


def mixed_archive():
    """Distinct windows, so scores differ per window, and one quiet window."""
    windows = [
        synth_signal(kind, 120, DT_2S, s).samples
        for s, kind in enumerate(["energy-neutral-random", "drifting"] * 3)
    ]
    return SignalArchive(np.stack(windows + [np.zeros(120)]), DT_2S)


class TestSweepMatchesSequential:
    """solve_bid scores coarse capacities in blocks, yet publishes what the
    one-capacity-at-a-time sweep did, bit for bit."""

    def setup_method(self):
        self.cfg = reference_system()
        self.market = reference_market()
        self.archive = mixed_archive()

    @pytest.mark.parametrize("budget", [None, 1, 6 * 3, 6 * 7 - 1])
    def test_same_curve_and_selection(self, monkeypatch, budget):
        if budget is not None:  # 6 windows are scored, so 1, 3 or 6 per block
            monkeypatch.setattr(bidding, "_SWEEP_BLOCK_ELEMENTS", budget)
        sweep = SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=0.01)
        sol = solve_bid(self.cfg, self.archive, self.market, sweep)
        scores, c_bar, c_hat, c_star, diags = sequential_solve(
            self.cfg, self.archive, self.market, sweep
        )
        assert [pt.c for pt in sol.curve] == sorted(scores)
        for pt in sol.curve:
            assert pt.scores.tobytes() == scores[pt.c].tobytes()
        assert (sol.c_bar, sol.c_hat, sol.c_star) == (c_bar, c_hat, c_star)
        got = sol.diagnostics
        assert {k: getattr(got, k) for k in diags} == diags
        assert got.refine_iterations > 0
        assert sol.curve[-1].c < sweep.c_hi  # the sweep stopped before its end

    def test_curve_std_is_each_points_own(self):
        sweep = SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=0.01)
        sol = solve_bid(self.cfg, self.archive, self.market, sweep)
        records = _curve_points(sol)
        assert len(records) > 10
        for pt, record in zip(sol.curve, records, strict=True):
            assert same_bits(pt.std_xp, float(np.std(pt.scores)))
            assert same_bits(record["std_xp"], pt.std_xp)

    @pytest.mark.parametrize("budget", [None, 1, 6 * 3])
    @pytest.mark.parametrize("c_lo, c_hi", [(17.0, 20.0), (1.0, 4.0)])
    def test_same_bracket_errors(self, monkeypatch, budget, c_lo, c_hi):
        if budget is not None:
            monkeypatch.setattr(bidding, "_SWEEP_BLOCK_ELEMENTS", budget)
        sweep = SweepGrid(c_lo=c_lo, c_hi=c_hi, coarse_step=0.5)
        with pytest.raises(BracketError) as expected:
            sequential_solve(self.cfg, self.archive, self.market, sweep)
        with pytest.raises(BracketError) as got:
            solve_bid(self.cfg, self.archive, self.market, sweep)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("lookahead, depth", [(6, 1), (6 * 3, 2), (6 * 7, 3), (6 * 255, 8)])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_lookahead_same_curve_and_selection(self, monkeypatch, budget, lookahead, depth):
        # 6 windows are scored, so the bisection looks 1, 2, 3 or 8 steps ahead;
        # this sweep's bisection takes 6
        monkeypatch.setattr(bidding, "_LOOKAHEAD_ELEMENTS", lookahead)
        if budget is not None:
            monkeypatch.setattr(bidding, "_SWEEP_BLOCK_ELEMENTS", budget)
        calls = []
        error_sums = bidding.rt_error_sums
        monkeypatch.setattr(
            bidding, "rt_error_sums",
            lambda cfg, cs, *rest: calls.append(cs.tolist()) or error_sums(cfg, cs, *rest),
        )
        sweep = SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=0.01)
        sol = solve_bid(self.cfg, self.archive, self.market, sweep)
        scores, c_bar, c_hat, c_star, diags = sequential_solve(
            self.cfg, self.archive, self.market, sweep
        )
        assert [pt.c for pt in sol.curve] == sorted(scores)
        for pt in sol.curve:
            assert pt.scores.tobytes() == scores[pt.c].tobytes()
        assert (sol.c_bar, sol.c_hat, sol.c_star) == (c_bar, c_hat, c_star)
        got = sol.diagnostics
        assert {k: getattr(got, k) for k in diags} == diags
        assert diags["refine_iterations"] == 6
        # the bisection's calls score only points inside the coarse bracket
        coarse = sweep.coarse_points().tolist()
        lo = max(c for c in coarse if c <= c_bar)
        hi = coarse[coarse.index(lo) + 1]
        tree_calls = [cs for cs in calls if all(lo < c < hi for c in cs)]
        assert len(tree_calls) == math.ceil(diags["refine_iterations"] / depth)
        scored = {c for cs in tree_calls for c in cs}
        unvisited = scored - set(scores)
        assert len(scored) == len(unvisited) + diags["refine_iterations"]
        assert bool(unvisited) == (depth > 1)
        assert not unvisited & {pt.c for pt in sol.curve}

    @pytest.mark.parametrize("lookahead", [6, 6 * 3, 6 * 7, 6 * 255])
    @pytest.mark.parametrize("c_lo, c_hi", [(17.0, 20.0), (1.0, 4.0)])
    def test_lookahead_same_bracket_errors(self, monkeypatch, lookahead, c_lo, c_hi):
        monkeypatch.setattr(bidding, "_LOOKAHEAD_ELEMENTS", lookahead)
        sweep = SweepGrid(c_lo=c_lo, c_hi=c_hi, coarse_step=0.5)
        with pytest.raises(BracketError) as expected:
            sequential_solve(self.cfg, self.archive, self.market, sweep)
        with pytest.raises(BracketError) as got:
            solve_bid(self.cfg, self.archive, self.market, sweep)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("lookahead", [None, 6 * 255])
    def test_finest_refine_tol_ends(self, monkeypatch, lookahead):
        # at one float spacing of c_hi every midpoint still lies strictly
        # inside its bracket, so the bisection ends, 47 steps in
        if lookahead is not None:
            monkeypatch.setattr(bidding, "_LOOKAHEAD_ELEMENTS", lookahead)
        sweep = SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=math.ulp(20.0))
        sol = solve_bid(self.cfg, self.archive, self.market, sweep)
        scores, c_bar, c_hat, c_star, diags = sequential_solve(
            self.cfg, self.archive, self.market, sweep
        )
        assert [pt.c for pt in sol.curve] == sorted(scores)
        assert (sol.c_bar, sol.c_hat, sol.c_star) == (c_bar, c_hat, c_star)
        assert sol.diagnostics.refine_iterations == diags["refine_iterations"] > 40
        assert 0.0 < sol.diagnostics.upper_bracket_c - sol.c_bar <= sweep.refine_tol


@st.composite
def score_blocks(draw):
    """(capacities, windows) score blocks: values inside and outside [0, 1],
    and rows where many values tie, at the clamp's ends and the thresholds."""
    rows = draw(st.integers(1, 200))
    n = draw(st.one_of(st.integers(1, 2000), st.integers(1, 20).map(lambda q: 100 * q)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.uniform(-0.5, 1.5, (rows, n))
    tied = rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    scores[tied] = rng.choice([-0.25, 0.0, 0.5, 0.75, 1.0, 1.25], int(tied.sum()))
    return scores


# gamma = j / 100, so that (1 - gamma) * n is an exact decimal product
# whenever n is a multiple of 100
gammas = st.one_of(st.integers(1, 99).map(lambda j: j / 100), st.floats(0.001, 0.999))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scores=score_blocks(), gamma=gammas, x_p_min=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_block_statistics_match_one_point_at_a_time(scores, gamma, x_p_min):
    """Each row's statistics from the block's row reductions have the bits of
    reducing that row alone."""
    market = reference_market(gamma=gamma, x_p_min=x_p_min)
    cs = (1.0 + np.arange(scores.shape[0]) / 8.0).tolist()
    points = bidding._block_stats(cs, scores, market)
    for i, pt in enumerate(points):
        row = scores[i]
        assert pt.c == cs[i] and same_bits(pt.scores, row)
        assert same_bits(pt.mean_xp, float(row.mean()))
        assert same_bits(pt.std_xp, float(np.std(row)))
        assert same_bits(pt.z_gamma, quantile_lower(row, gamma))
        assert same_bits(pt.prob_compliant, float(np.mean(np.clip(row, 0.0, 1.0) >= x_p_min)))
        assert pt.objective == pt.c * pt.mean_xp
    assert len(points) == scores.shape[0]


class TestSweepGrid:
    def test_coarse_points_cover_endpoints(self):
        pts = SweepGrid(c_lo=1.0, c_hi=2.1, coarse_step=0.25).coarse_points()
        assert pts[0] == 1.0
        assert pts[-1] == 2.1
        assert np.all(np.diff(pts) > 0)

    def test_exact_multiple_has_no_duplicate_endpoint(self):
        pts = SweepGrid(c_lo=1.0, c_hi=2.0, coarse_step=0.25).coarse_points()
        assert list(pts) == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(c_lo=0.0, c_hi=1.0)
        with pytest.raises(ValueError):
            SweepGrid(c_lo=2.0, c_hi=1.0)
        with pytest.raises(ValueError):
            SweepGrid(c_lo=1.0, c_hi=2.0, coarse_step=0.0)

    @pytest.mark.parametrize("refine_tol", [0.0, -0.01, 1e-17, math.ulp(20.0) / 2])
    def test_refine_tol_below_float_spacing_refused(self, refine_tol):
        with pytest.raises(ValueError, match="refine_tol must be >= 3.55271e-15"):
            SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=refine_tol)
        SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=0.5, refine_tol=math.ulp(20.0))

    @pytest.mark.parametrize("coarse_step", [1e-13, 1e-5, 0.0, -0.25])
    def test_coarse_grid_over_step_limit_refused(self, coarse_step):
        # 1e-13 made numpy ask for 1.35 PiB, and 1e-5 built 1 900 001 points
        with pytest.raises(ValueError, match=r"coarse_step must be >= 0.00019, .* / 100000"):
            SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=coarse_step)
        finest = SweepGrid(c_lo=1.0, c_hi=20.0, coarse_step=19.0 / 100_000)
        assert finest.coarse_points().size == 100_001

    @pytest.mark.parametrize("field", ["c_lo", "c_hi", "coarse_step", "refine_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, field, value):
        kwargs = dict(c_lo=1.0, c_hi=2.0, coarse_step=0.25, refine_tol=0.01)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SweepGrid(**kwargs)
