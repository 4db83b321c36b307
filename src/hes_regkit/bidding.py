"""Capacity bid selection against a historical signal archive.

For a candidate capacity C the controller is simulated over every archive
window, giving an empirical score sample per window. The bid machinery then

1. finds C_bar, the largest capacity whose empirical lower gamma-quantile
   z_gamma(C) still clears the compliance threshold x_p_min (coarse sweep
   up, scoring a block of capacities per rt_error_sums call, then bisection
   refinement of the crossing bracket, scoring in one call every midpoint
   its next few steps could visit). Both score more capacities than they
   keep: only those a one-at-a-time search visits enter the curve, so the
   curve and every artifact are the same as that search's,
2. picks C_hat maximizing C * mean(x_p) over evaluated compliant capacities,
3. returns C_star = min(C_hat, market c_max).

Each point's statistics (mean, standard deviation, lower quantile, share
compliant) are row reductions over its block's (capacities, windows) score
array, one numpy call per statistic per block; numpy reduces each row as it
reduces that row alone, so a point's bits do not depend on the block it was
scored in.

Scores are evaluated in-sample over the same archive; windows whose command
never moves (sum|r| = 0) are excluded (_moving_windows decides which, for
every function here) and counted in the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .controller import rt_error_sums
from .model import HesConfig, _require_finite
from .scoring import MarketParams
from .signals import SignalArchive

__all__ = [
    "BracketError",
    "SweepGrid",
    "BidCurvePoint",
    "BidDiagnostics",
    "BidSolution",
    "RevenueSummary",
    "score_samples",
    "quantile_lower",
    "solve_bid",
    "expected_revenue",
]


# most coarse steps over [c_lo, c_hi]: 10**5 points already score for minutes
_MAX_COARSE_STEPS = 100_000


class BracketError(ValueError):
    """The compliance crossing does not lie inside the sweep interval."""


@dataclass(frozen=True)
class SweepGrid:
    """Capacity sweep: coarse grid [c_lo, c_hi] then bisection to refine_tol."""

    c_lo: float
    c_hi: float
    coarse_step: float = 0.25
    refine_tol: float = 0.01

    def __post_init__(self) -> None:
        _require_finite("", self, *(f.name for f in fields(self)))
        if not 0.0 < self.c_lo < self.c_hi:
            raise ValueError(
                f"need 0 < c_lo < c_hi, got c_lo={self.c_lo}, c_hi={self.c_hi}"
            )
        min_step = (self.c_hi - self.c_lo) / _MAX_COARSE_STEPS
        if self.coarse_step < min_step:
            raise ValueError(
                f"coarse_step must be >= {min_step:g}, (c_hi - c_lo) / "
                f"{_MAX_COARSE_STEPS}; got {self.coarse_step:g}"
            )
        # below the float spacing at c_hi a midpoint can round onto its
        # bracket's end, and the bisection would never finish
        if self.refine_tol < math.ulp(self.c_hi):
            raise ValueError(
                f"refine_tol must be >= {math.ulp(self.c_hi):g}, the float spacing "
                f"at c_hi={self.c_hi:g}; got {self.refine_tol:g}"
            )

    def coarse_points(self) -> np.ndarray:
        n = int(math.floor((self.c_hi - self.c_lo) / self.coarse_step + 1e-9))
        pts = self.c_lo + self.coarse_step * np.arange(n + 1)
        if pts[-1] < self.c_hi - 1e-12:
            pts = np.append(pts, self.c_hi)
        else:
            pts[-1] = self.c_hi
        return pts


@dataclass(frozen=True, eq=False)
class BidCurvePoint:
    """Archive-wide score statistics at one candidate capacity.

    ``scores`` are raw (unclamped) per-window samples; ``mean_xp`` and
    ``std_xp`` are their mean and (population) standard deviation;
    ``prob_compliant`` uses scores clamped into [0, 1]. ``objective`` is
    c * mean_xp.
    """

    c: float
    scores: np.ndarray
    mean_xp: float
    std_xp: float
    z_gamma: float
    prob_compliant: float
    objective: float


@dataclass(frozen=True)
class BidDiagnostics:
    n_windows: int
    zero_signal_windows: int
    coarse_points: int
    refine_iterations: int
    upper_bracket_c: float
    upper_bracket_z: float
    z_monotonicity_violations: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class BidSolution:
    """Bid sweep result: curve points (ascending c) plus selected capacities.

    c_bar   largest capacity found compliant (z_gamma >= x_p_min)
    c_hat   revenue-proxy argmax over compliant evaluated capacities
    c_star  min(c_hat, market c_max), the bid to submit
    """

    curve: tuple[BidCurvePoint, ...]
    c_bar: float
    c_hat: float
    c_star: float
    diagnostics: BidDiagnostics

    def point_at(self, c: float) -> BidCurvePoint:
        for pt in self.curve:
            if pt.c == c:
                return pt
        raise KeyError(f"no curve point at c={c!r}")


def score_samples(cfg: HesConfig, c: float, archive: SignalArchive) -> np.ndarray:
    """Per-window controller scores at capacity c (zero-signal windows dropped)."""
    matrix, l1 = _moving_windows(archive)
    return _scores(cfg, [c], matrix, l1, archive.dt)[0]


def quantile_lower(scores: np.ndarray, gamma: float) -> float:
    """Empirical lower quantile: the (floor((1-gamma)*H) + 1)-th smallest score.

    With H samples this is the largest z such that at least gamma of the
    sample mass sits at or above z. The small nudge before floor() keeps
    exact decimal products like (1-0.8)*5 from landing one order statistic
    low due to binary rounding.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    s = np.sort(np.asarray(scores, dtype=float))
    if s.size == 0:
        raise ValueError("need at least one score sample")
    return float(s[_order_index(gamma, s.size)])


def _order_index(gamma: float, n: int) -> int:
    """Index of the lower gamma-quantile among n sorted samples (see
    quantile_lower): floor((1 - gamma) * n), nudged up by 1e-9, at most n - 1."""
    return min(int(math.floor((1.0 - gamma) * n + 1e-9)), n - 1)


# capacities x windows scored in one rt_error_sums call by the coarse sweep:
# about 0.5 MiB per (capacities, windows) float64 array it steps
_SWEEP_BLOCK_ELEMENTS = 1 << 16


# midpoints x windows scored in one rt_error_sums call by the bisection's
# lookahead: 1 << 10 lets asym-sweep's 8 windows finish their five-step
# refinement in one call and keeps bid-year's 365 at depth 1, where depth 2
# and 3 measured no faster (min of 12 interleaved solves, 2-CPU Xeon)
_LOOKAHEAD_ELEMENTS = 1 << 10


def _midpoint_tree(
    lo: float, hi: float, tol: float, depth: int, node: int = 0, tree: dict | None = None
) -> dict[int, float]:
    """Midpoints the next ``depth`` bisection steps from [lo, hi] may visit.

    Keyed by heap index: node i splits its bracket at tree[i], node 2i+1
    holds the bracket below that midpoint and 2i+2 the one above. A bracket
    no wider than ``tol`` is not split, as the bisection stops there.
    """
    tree = {} if tree is None else tree
    if depth > 0 and hi - lo > tol:
        mid = tree[node] = 0.5 * (lo + hi)
        _midpoint_tree(lo, mid, tol, depth - 1, 2 * node + 1, tree)
        _midpoint_tree(mid, hi, tol, depth - 1, 2 * node + 2, tree)
    return tree


def _moving_windows(archive: SignalArchive) -> tuple[np.ndarray, np.ndarray]:
    """The windows whose command moves (sum|r| > 0) as one matrix, and their
    sum|r|. The matrix is the archive's own when every window moves."""
    matrix = archive.samples
    l1 = np.sum(np.abs(matrix), axis=1)
    moving = l1 > 0.0
    if not np.any(moving):
        raise ValueError("archive has no window with nonzero command movement")
    if not np.all(moving):
        matrix, l1 = matrix[moving], l1[moving]
    return matrix, l1


def _scores(
    cfg: HesConfig, cs: np.ndarray | list[float], matrix: np.ndarray, l1: np.ndarray, dt: float
) -> np.ndarray:
    """Per-window scores at each capacity in cs, shape (capacities, windows),
    over _moving_windows' matrix and sum|r|, in one rt_error_sums call."""
    cs = np.asarray(cs, dtype=float)
    err_sums = rt_error_sums(cfg, cs, matrix, dt)
    return 1.0 - err_sums / (cs[:, None] * l1)


def _block_stats(
    cs: list[float], scores: np.ndarray, market: MarketParams
) -> list[BidCurvePoint]:
    """The curve point of each row of a C-contiguous (capacities, windows)
    score block taken at cs. Each statistic is one reduction along the
    windows axis, with the bits of the same reduction over one row
    (quantile_lower for z_gamma)."""
    means = scores.mean(axis=1).tolist()
    stds = scores.std(axis=1).tolist()
    m = _order_index(market.gamma, scores.shape[1])
    z_gammas = np.sort(scores, axis=1)[:, m].tolist()
    compliant = np.mean(np.clip(scores, 0.0, 1.0) >= market.x_p_min, axis=1).tolist()
    return [
        BidCurvePoint(c, row, mean, std, z, prob, objective=c * mean)
        for c, row, mean, std, z, prob in zip(cs, scores, means, stds, z_gammas, compliant)
    ]


def solve_bid(
    cfg: HesConfig,
    archive: SignalArchive,
    market: MarketParams,
    sweep: SweepGrid,
) -> BidSolution:
    """Select the capacity bid for one archive. See module docstring.

    Raises ValueError on an archive of fewer than 2 windows, and
    BracketError unless z_gamma(c_lo) >= x_p_min > z_gamma(c_hi): the
    compliance boundary must lie strictly inside the sweep range.
    """
    if archive.n_windows < 2:
        raise ValueError(f"bid selection needs >= 2 windows, archive has {archive.n_windows}")
    matrix, l1 = _moving_windows(archive)
    curve: dict[float, BidCurvePoint] = {}

    def block(cs: np.ndarray | list[float]) -> list[BidCurvePoint]:
        """The points at cs, scored as one block; one enters the curve only
        once the search visits it."""
        cs = np.asarray(cs, dtype=float)
        return _block_stats(cs.tolist(), _scores(cfg, cs, matrix, l1, archive.dt), market)

    pts = sweep.coarse_points()
    # coarse sweep upward, scored a block of capacities at a time; only the
    # points up to the first non-compliant one enter the curve
    size = max(1, _SWEEP_BLOCK_ELEMENTS // l1.size)
    last_compliant = upper = None
    for start in range(0, len(pts), size):
        for pt in block(pts[start : start + size]):
            curve[pt.c] = pt
            if pt.z_gamma < market.x_p_min:
                upper = pt.c
                break
            last_compliant = pt.c
        if upper is not None:
            break
    if last_compliant is None:
        raise BracketError(
            f"z_gamma({pts[0]:g}) = {curve[pts[0]].z_gamma:.6g} is already below "
            f"x_p_min = {market.x_p_min:g}; lower c_lo"
        )
    if upper is None:
        raise BracketError(
            f"z_gamma({pts[-1]:g}) = {curve[pts[-1]].z_gamma:.6g} still clears "
            f"x_p_min = {market.x_p_min:g}; raise c_hi"
        )

    # bisection-refine the crossing bracket [last_compliant, upper], scoring
    # every midpoint the next `depth` steps could visit in one call; only the
    # midpoints the search visits enter the curve
    lo, hi = last_compliant, upper
    iterations = 0
    # the deepest tree whose 2**depth - 1 midpoints fit the budget, or one
    depth = max(1, (_LOOKAHEAD_ELEMENTS // l1.size + 1).bit_length() - 1)
    while hi - lo > sweep.refine_tol:
        tree = _midpoint_tree(lo, hi, sweep.refine_tol, depth)
        rows = dict(zip(tree, block(list(tree.values()))))
        node = 0
        while node in tree:
            pt = rows[node]
            curve[pt.c] = pt
            if pt.z_gamma >= market.x_p_min:
                lo, node = pt.c, 2 * node + 2
            else:
                hi, node = pt.c, 2 * node + 1
            iterations += 1
    c_bar = lo

    compliant = [c for c in sorted(curve) if c <= c_bar]
    c_hat = float(max(compliant, key=lambda c: (curve[c].objective, -c)))
    c_star = min(c_hat, market.c_max)
    if c_star not in curve:  # the selected bid gets a curve point
        pt = block([c_star])[0]
        curve[pt.c] = pt

    points = tuple(curve[c] for c in sorted(curve))
    violations = tuple(
        b.c for a, b in zip(points, points[1:]) if b.z_gamma > a.z_gamma + 1e-9
    )
    diags = BidDiagnostics(
        n_windows=archive.n_windows,
        zero_signal_windows=archive.n_windows - l1.size,
        coarse_points=len(pts),
        refine_iterations=iterations,
        upper_bracket_c=hi,
        upper_bracket_z=curve[hi].z_gamma,
        z_monotonicity_violations=violations,
    )
    return BidSolution(curve=points, c_bar=c_bar, c_hat=c_hat, c_star=c_star, diagnostics=diags)


@dataclass(frozen=True)
class RevenueSummary:
    """Expected earnings at the selected bid."""

    c_star: float
    mean_xp: float
    capacity_only: float  # c_star * mean_xp * lambda_c
    with_mileage: float  # mean over windows of full capacity+mileage payment

    def to_dict(self) -> dict:
        return asdict(self)


def expected_revenue(
    solution: BidSolution, archive: SignalArchive, market: MarketParams
) -> RevenueSummary:
    """Average per-window payment at c_star over the archive's scored windows."""
    pt = solution.point_at(solution.c_star)
    steps = np.diff(_moving_windows(archive)[0], axis=1)
    miles = np.sum(np.abs(steps, out=steps), axis=1)
    per_window = solution.c_star * pt.scores * (market.lambda_c + market.lambda_m * miles)
    return RevenueSummary(
        c_star=solution.c_star,
        mean_xp=pt.mean_xp,
        capacity_only=solution.c_star * pt.mean_xp * market.lambda_c,
        with_mileage=float(per_window.mean()),
    )
