"""Offline solvers: LP pipeline, grid oracle, closed form, benchmark report."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import hes_regkit.offline as offline
from hes_regkit import (
    BudgetError,
    RegSignal,
    benchmark_controller,
    closed_form_dispatch,
    dp_oracle,
    offline_dispatch,
    rt_dispatch,
    synth_signal,
    validate_trace,
)
from hes_regkit.config import load_config
from helpers import (
    DT_2S,
    SAT_C,
    SAT_DT,
    SAT_SEED,
    grid_resolution_mw,
    random_capacity,
    random_signal,
    random_system,
    reference_system,
    same_bits,
    saturating_instance,
)

class TestLpPath:
    def test_saturated_constant_command(self):
        # command 20 MW, reach 8 MW: every step clips, objective 3 * 12
        cfg = reference_system()
        sig = RegSignal(samples=np.ones(3), dt=DT_2S)
        sol = offline_dispatch(cfg, 20.0, sig)
        assert sol.solver_path == "lp"
        assert sol.complementarity_clean
        assert sol.objective == pytest.approx(36.0, abs=1e-6)
        assert sol.lp_bound == pytest.approx(36.0, abs=1e-6)
        assert np.all(sol.trace.p_hes <= 8.0 + 1e-6)

    def test_clean_trace_is_feasible_at_model_tolerances(self):
        cfg = reference_system()
        sig = synth_signal("energy-neutral-random", 120, DT_2S, 4)
        sol = offline_dispatch(cfg, 10.0, sig)
        assert sol.solver_path == "lp"
        assert validate_trace(cfg, sol.trace) == []

    def test_lp_lower_bounds_the_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            cfg = random_system(rng, dt=float(rng.uniform(0.01, 0.06)))
            sig = random_signal(rng, int(rng.integers(20, 60)), cfg.dt)
            c = random_capacity(rng, cfg)
            j_on = rt_dispatch(cfg, c, sig).abs_error()
            sol = offline_dispatch(cfg, c, sig)
            assert sol.lp_bound is not None
            assert sol.lp_bound <= j_on + 1e-6 * max(1.0, j_on)

    def test_repair_path_preserves_objective_and_feasibility(self):
        rng = np.random.default_rng(59)
        found = 0
        for _ in range(60):
            cfg = random_system(rng, dt=float(rng.uniform(0.02, 0.08)))
            sig = random_signal(rng, int(rng.integers(20, 61)), cfg.dt)
            c = random_capacity(rng, cfg)
            sol = offline_dispatch(cfg, c, sig)
            if sol.solver_path != "lp-with-repair":
                continue
            found += 1
            assert not sol.complementarity_clean
            assert sol.objective == pytest.approx(
                sol.lp_bound, rel=1e-6, abs=1e-6
            )
            overlap = sol.trace.p_discharge * (-sol.trace.p_charge)
            assert float(overlap.max()) <= 1e-9
            soc_tol = 2e-8 * sig.n + 1e-9
            assert validate_trace(cfg, sol.trace, power_tol=1e-6, soc_tol=soc_tol) == []
            if found >= 5:
                break
        assert found >= 1, "instance distribution no longer exercises the repair path"

    def test_repaired_soc_holds_at_default_tolerance(self):
        # the pipeline accepts repaired SoC within 2e-8 * n + 1e-9; what the
        # repair actually leaves is rounding, well inside SOC_TOL (1e-12)
        rng = np.random.default_rng(59)
        found = 0
        for _ in range(300):
            cfg = random_system(rng, dt=float(rng.uniform(0.02, 0.08)))
            sig = random_signal(rng, int(rng.integers(20, 61)), cfg.dt)
            c = random_capacity(rng, cfg)
            sol = offline_dispatch(cfg, c, sig)
            if sol.solver_path != "lp-with-repair":
                continue
            found += 1
            assert validate_trace(cfg, sol.trace) == []
        assert found >= 100, "instance distribution no longer exercises the repair path"

    def test_burn_instance_falls_back_to_dp(self):
        cfg, sig = saturating_instance()
        sol = offline_dispatch(cfg, SAT_C, sig)
        assert sol.solver_path == "dp"
        assert not sol.complementarity_clean
        assert sol.lp_bound is not None
        assert sol.lp_bound < sol.objective  # true relaxation gap on this one
        assert validate_trace(cfg, sol.trace) == []

    def test_dp_budget_guard_via_pipeline(self, monkeypatch):
        # refused up front: no LP is built for a window past the limit
        def no_linprog(*args, **kwargs):
            pytest.fail("linprog called for a window past STEP_LIMIT")

        monkeypatch.setattr(offline, "linprog", no_linprog)
        cfg = reference_system(dt=SAT_DT)
        n = offline.STEP_LIMIT + 1
        sig = synth_signal("drifting", n, SAT_DT, SAT_SEED, bias=-0.7, noise=0.3)
        with pytest.raises(BudgetError, match="downsample"):
            offline_dispatch(cfg, SAT_C, sig)

    def test_raised_dp_budget_reaches_the_oracle(self):
        # 250 steps, where the repair fails as on the 60-step instance
        cfg = reference_system(dt=SAT_DT)
        sig = synth_signal("drifting", 250, SAT_DT, SAT_SEED, bias=-0.7, noise=0.3)
        sol = offline_dispatch(cfg, SAT_C, sig)
        assert sol.solver_path == "dp"
        assert validate_trace(cfg, sol.trace) == []


SYMMETRIC = Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini"


def test_long_absorbing_window_answered_by_the_oracle():
    # two hours against the SoC ceiling: the relaxation overlaps charge and
    # discharge on most steps, netting breaks the ceiling, so only the grid
    # oracle answers; it brackets the optimum with the LP bound
    cfg = load_config(SYMMETRIC).hes
    sig = synth_signal("drifting", 3600, cfg.dt, 0, bias=-0.5, noise=0.8)
    sol = offline_dispatch(cfg, 12.0, sig)
    assert sol.solver_path == "dp"
    assert validate_trace(cfg, sol.trace) == []
    assert sol.lp_bound <= sol.objective <= rt_dispatch(cfg, 12.0, sig).abs_error()


class TestClosedForm:
    def test_matches_rule_bitwise_when_interior(self):
        cfg = reference_system()
        sig = synth_signal("energy-neutral-random", 400, DT_2S, 12)
        cf = closed_form_dispatch(cfg, 12.21, sig)
        assert cf is not None
        assert cf.solver_path == "closed-form"
        rt = rt_dispatch(cfg, 12.21, sig)
        for name in ("p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc"):
            assert np.array_equal(getattr(cf.trace, name), getattr(rt, name)), name
        assert cf.objective == rt.abs_error()

    def test_clips_to_combined_reach(self):
        cfg = reference_system()
        sig = RegSignal(samples=np.array([1.0, -1.0, 1.0, -1.0]), dt=DT_2S)
        cf = closed_form_dispatch(cfg, 30.0, sig)
        assert cf is not None
        assert np.array_equal(cf.trace.p_hes, np.array([8.0, -8.0, 8.0, -8.0]))

    def test_not_applicable_when_soc_saturates(self):
        cfg, sig = saturating_instance()
        assert closed_form_dispatch(cfg, SAT_C, sig) is None

    def test_boundary_crossing_is_not_interior(self):
        # start with less SoC headroom than one full-power discharge consumes
        cfg = reference_system(dt=0.1)
        batt = cfg.batt
        full_step = batt.p_max * cfg.dt / (batt.eta_d * batt.energy_capacity)
        cfg = dataclasses.replace(
            cfg, batt=dataclasses.replace(batt, soc_init=batt.soc_min + 0.9 * full_step)
        )
        sig = RegSignal(samples=np.array([1.0, 0.0]), dt=0.1)
        assert closed_form_dispatch(cfg, 20.0, sig) is None


class TestDpOracle:
    def test_two_step_saturated_command(self):
        cfg = reference_system()
        sig = RegSignal(samples=np.ones(2), dt=DT_2S)
        dp = dp_oracle(cfg, 20.0, sig)
        assert dp.objective == pytest.approx(24.0, abs=1e-9)
        assert dp.complementarity_clean

    def test_refinement_converges(self, monkeypatch):
        cfg, sig = saturating_instance()
        objectives = []
        for s_pts, p_pts in [(11, 11), (51, 51), (101, 101), (201, 201)]:
            monkeypatch.setattr(offline, "_SOC_GRID_POINTS", s_pts)
            monkeypatch.setattr(offline, "_POWER_GRID_POINTS", p_pts)
            dp = dp_oracle(cfg, SAT_C, sig)
            objectives.append(dp.objective)
            assert abs(dp.dp_value - dp.objective) <= 1.0  # root value tracks rollout
        for coarse, fine in zip(objectives, objectives[1:]):
            assert fine <= coarse + 1e-9
        # frozen from a pre-build run of this oracle at these grids
        assert objectives[2] == pytest.approx(237.5398600874, abs=1e-6)
        assert objectives[3] == pytest.approx(237.4898600874, abs=1e-6)

    def test_matches_lp_on_clean_instance(self):
        cfg = reference_system(dt=0.05)
        sig = synth_signal("energy-neutral-random", 40, 0.05, 77)
        c = 12.0
        sol = offline_dispatch(cfg, c, sig)
        assert sol.solver_path in ("lp", "lp-with-repair")
        dp = dp_oracle(cfg, c, sig)
        tol = 2 * grid_resolution_mw(cfg)
        assert abs(dp.objective - sol.objective) <= tol
        assert sol.lp_bound <= dp.objective + 1e-6

    def test_trace_feasible_and_clean(self):
        cfg, sig = saturating_instance()
        dp = dp_oracle(cfg, SAT_C, sig)
        assert validate_trace(cfg, dp.trace) == []

    @staticmethod
    def assert_np_interp_route_bitwise(monkeypatch, cfg, c, sig):
        """dp_oracle's backward pass gives, at every step, the continuation
        np.interp gives, so the value table is np.interp's; and the rollout,
        objective and root value are those of the np.interp route."""
        gather = offline._interp_at
        steps = []

        def checked(x, xp):
            fast = gather(x, xp)

            def interp(fp):
                want = np.interp(x, xp, fp)
                steps.append(same_bits(fast(fp), want))
                return want

            return interp

        with monkeypatch.context() as m:
            m.setattr(offline, "_interp_at", checked)
            ref = dp_oracle(cfg, c, sig)
        assert len(steps) == sig.n and all(steps)
        got = dp_oracle(cfg, c, sig)
        for name in ("p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc"):
            assert same_bits(getattr(got.trace, name), getattr(ref.trace, name)), name
        assert same_bits(got.objective, ref.objective)
        assert same_bits(got.dp_value, ref.dp_value)

    def test_backward_pass_is_np_interp_bitwise_on_the_absorbing_window(self, monkeypatch):
        cfg = load_config(SYMMETRIC).hes
        sig = synth_signal("drifting", 3600, cfg.dt, 0, bias=-0.5, noise=0.8)
        self.assert_np_interp_route_bitwise(monkeypatch, cfg, 12.0, sig)

    @pytest.mark.parametrize("seed", range(6))
    def test_backward_pass_is_np_interp_bitwise_on_random_grids(self, monkeypatch, seed):
        # coarse to fine grids, and steps long enough that a move spans
        # several SoC nodes, so the search lands on every kind of interval
        rng = np.random.default_rng([seed, 19])
        dt = float(rng.uniform(DT_2S, 0.25))
        cfg = random_system(rng, dt)
        sig = random_signal(rng, int(rng.integers(2, 120)), dt)
        monkeypatch.setattr(offline, "_SOC_GRID_POINTS", int(rng.integers(3, 160)))
        monkeypatch.setattr(offline, "_POWER_GRID_POINTS", 2 * int(rng.integers(1, 60)) + 1)
        self.assert_np_interp_route_bitwise(monkeypatch, cfg, random_capacity(rng, cfg), sig)

    def test_budget_guard(self):
        cfg = reference_system()
        sig = RegSignal(samples=np.zeros(offline.STEP_LIMIT + 1), dt=DT_2S)
        with pytest.raises(BudgetError, match=str(offline.STEP_LIMIT + 1)):
            dp_oracle(cfg, 8.0, sig)

    def test_idle_steps_have_no_negative_zero_load(self):
        # a zero command leaves the battery and the gen/load pair idle; the
        # trace splits net gen/load as the LP traces do, so an idle load is
        # +0.0 and prints as 0, never as -0
        cfg = reference_system()
        samples = np.zeros(12)
        samples[4:8] = [0.5, -0.25, 1.0, -1.0]
        dp = dp_oracle(cfg, 8.0, RegSignal(samples=samples, dt=DT_2S))
        for name in ("p_gen", "p_load"):
            col = getattr(dp.trace, name)
            assert not np.any(np.signbit(col)), name
        assert np.count_nonzero(dp.trace.p_load == 0.0) >= 8


class TestBenchmark:
    def test_interior_instance_reports_equivalence(self):
        cfg = reference_system()
        sig = synth_signal("energy-neutral-random", 300, DT_2S, 21)
        report = benchmark_controller(cfg, 12.21, sig)
        assert report.hypothesis_held
        assert report.solver_path in ("lp", "lp-with-repair")
        assert abs(report.gap) <= 1e-6 * max(1.0, report.j_off)
        d = report.to_dict()
        assert set(d) == {"c", "j_on", "j_off", "gap", "hypothesis_held", "solver_path"}

    def test_saturating_instance_reports_gap(self):
        cfg, sig = saturating_instance()
        report = benchmark_controller(cfg, SAT_C, sig)
        assert not report.hypothesis_held
        assert report.gap > 1.0  # the rule pays a real price at the SoC ceiling
        assert report.j_on > report.j_off
