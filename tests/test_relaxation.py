"""The exact relaxation oracle (tests/relaxation.py) against the LP that
offline_dispatch solves, and against the priority rule.

Every tolerance is pinned here from its worst case over FLEETS, measured
with numpy 2.4.6 and scipy 1.17.1 (HiGHS) on x86-64.
"""

import dataclasses
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hes_regkit import (
    POWER_TOL,
    SOC_TOL,
    HesConfig,
    OfflineSolution,
    RegSignal,
    closed_form_dispatch,
    dp_oracle,
    offline_dispatch,
    rt_dispatch,
    validate_trace,
)
from hes_regkit.config import load_config
from hes_regkit.offline import COMPLEMENTARITY_TOL
from helpers import (
    DT_2S,
    SAT_C,
    random_capacity,
    random_signal,
    random_system,
    reference_system,
    saturating_instance,
)
import relaxation
from relaxation import BURN_TOL_MW, Relaxation, _Battery, solve_relaxation

FLEETS = 200
# |value - lp_bound| / max(1, lp_bound): worst 4.0e-12 measured, 25x under
VALUE_RTOL = 1e-10
# |sum |target - p_hes| - value| / max(1, value): worst 4.0e-12 measured
TRACE_L1_RTOL = 1e-10
# the same for sum (p_discharge - p_charge) against the least throughput:
# worst 2.6e-12 measured
THROUGHPUT_RTOL = 1e-10
# MW or SoC, each column against rt_dispatch's on the 103 interior windows:
# worst 1.5e-14 measured, 65x under
RULE_ATOL = 1e-12
COLUMNS = ("p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc")


class Case(NamedTuple):
    cfg: HesConfig
    c: float
    sig: RegSignal
    lp: OfflineSolution
    oracle: Relaxation


@pytest.fixture(scope="module")
def cases() -> list[Case]:
    """Random fleets as offline_dispatch sees them: 2 s to 6 min steps,
    2 to 400 of them, on all three of its routes."""
    rng = np.random.default_rng(20261019)
    out = []
    for _ in range(FLEETS):
        dt = float(rng.uniform(DT_2S, 0.1))
        cfg = random_system(rng, dt)
        sig = random_signal(rng, int(rng.integers(2, 401)), dt)
        c = random_capacity(rng, cfg)
        out.append(Case(cfg, c, sig, offline_dispatch(cfg, c, sig), solve_relaxation(cfg, c, sig)))
    return out


class Window(NamedTuple):
    cfg: HesConfig
    c: float
    sig: RegSignal
    oracle: Relaxation


@pytest.fixture(scope="module")
def drift_windows() -> list[Window]:
    """The drifting windows of the offline-dispatch benchmark, seeds 0-3:
    symmetric.ini's [hes] at 12 MW over 2 000 steps that charge the battery
    to its SoC ceiling."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini").hes
    out = []
    for seed in range(4):
        rng = np.random.default_rng([seed, 3])
        sig = RegSignal(
            samples=np.clip(-0.5 + 0.8 * rng.uniform(-1.0, 1.0, 2000), -1.0, 1.0), dt=cfg.dt
        )
        out.append(Window(cfg, 12.0, sig, solve_relaxation(cfg, 12.0, sig)))
    return out


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def test_value_is_the_lp_bound(cases):
    routes = Counter(case.lp.solver_path for case in cases)
    assert set(routes) == {"lp", "lp-with-repair", "dp"}, routes
    worst = max(relative(case.oracle.value, case.lp.lp_bound) for case in cases)
    assert worst <= VALUE_RTOL


def test_cost_to_go_has_at_most_five_pieces(cases, drift_windows):
    # The error halves of the slope pairs below are the relaxation's own
    # slopes, {0, +-eta_d/alpha, +-1/(alpha eta_c)}, and lexicographic order
    # keeps them ascending, so G_k's error alone has at most five pieces.
    for case in [*cases, *drift_windows]:
        batt = _Battery(case.cfg)
        allowed = {0.0, batt.s_d, -batt.s_d, batt.s_c, -batt.s_c}
        for g in case.oracle.cost_to_go:
            errors = [s[0] for s in g.slopes]
            assert errors == sorted(errors)
            assert set(errors) <= allowed
            assert len(set(errors)) <= 5


def test_cost_to_go_has_at_most_eight_pieces(cases, drift_windows):
    # Each G_k's slopes are slopes of G_{k+1} or of the reflected step cost,
    # and equal ones merge, so G_k has at most as many pieces as there are
    # slope pairs. A step cost's pairs (error, throughput), s_d = eta_d /
    # alpha and s_c = 1 / (alpha eta_c), are, by the output it takes:
    #   b_min, too much output:  (-s_c, s_c) below d_full, (-s_d, -s_d) above;
    #   t + load_max, overlap:   (0, -2 eta_d / (alpha (1 - eta_d eta_c)));
    #   b_max, no error:         (0, -s_d) for d < 0, (0, s_c) for d > 0;
    #   b_max, too little:       (s_d, -s_d) for d < 0, (s_c, s_c) for d > 0.
    # (Nothing lost, b_min's throughput slopes are b_max's, (-s_d, s_c).)
    # Seven pairs, negated in the reflection, and G_n's (0, 0): eight. The
    # error halves are the five slopes of the relaxation alone. Measured:
    # 7 over FLEETS, 6 on the drift windows.
    for case in [*cases, *drift_windows]:
        assert max(len(g.slopes) for g in case.oracle.cost_to_go) <= 8


def test_trace_attains_the_value(cases):
    worst = max(relative(case.oracle.trace.abs_error(), case.oracle.value) for case in cases)
    assert worst <= TRACE_L1_RTOL


def throughput(trace) -> float:
    return float(np.sum(trace.p_discharge - trace.p_charge))


def test_trace_attains_the_least_throughput(cases):
    # the throughput G_0 carries is the least among the optima (2.0e-9
    # relative to a second HiGHS solve that minimises it, on 60 of FLEETS)
    worst = max(relative(throughput(case.oracle.trace), case.oracle.throughput) for case in cases)
    assert worst <= THROUGHPUT_RTOL


def overlap(trace) -> np.ndarray:
    """MW carried by each step's minor side, 0 where a step is one-sided."""
    return np.minimum(trace.p_discharge, -trace.p_charge)


def test_no_step_overlaps_where_the_lp_has_a_clean_optimum(cases, drift_windows):
    # the least-throughput optimum charges and discharges at once only to
    # burn energy the SoC cannot hold; on the LP's routes none must be
    # burnt, and with BURN_TOL_MW's rule no step is two-sided at all
    clean = [case for case in cases if case.lp.solver_path != "dp"]
    assert len(clean) == 190
    for case in [*clean, *drift_windows]:
        assert float(overlap(case.oracle.trace).max()) == 0.0
    for window in drift_windows:
        oracle = window.oracle
        assert relative(oracle.trace.abs_error(), oracle.value) <= TRACE_L1_RTOL


def test_rounding_burns_sit_under_the_tolerance(drift_windows, monkeypatch):
    # Without BURN_TOL_MW's rule, the drift windows' steps may overlap by
    # rounding, to save an error of rounding size, the gap b_max - b. Each
    # keeps one step over COMPLEMENTARITY_TOL (1.1e-9 to 2.7e-9 MW^2), in
    # its last 18, at the SoC ceiling. Over seeds 0-20 the gap was at most
    # 9.0e-11 MW; the true burns of FLEETS and of the saturating instance
    # give up 0.071 MW or more
    monkeypatch.setattr(relaxation, "BURN_TOL_MW", -1.0)
    burnt = 0
    for cfg, c, sig, _ in drift_windows:
        trace = solve_relaxation(cfg, c, sig).trace
        bat = _Battery(cfg)
        for k in np.flatnonzero(overlap(trace) > 0.0).tolist():
            d = trace.soc[k + 1] - trace.soc[k]
            gap = bat.b_max(d) - (trace.p_discharge[k] + trace.p_charge[k])
            assert gap <= 0.1 * BURN_TOL_MW
        over = np.flatnonzero(trace.p_discharge * -trace.p_charge > COMPLEMENTARITY_TOL)
        assert over.min(initial=sig.n) >= sig.n - 18
        burnt += over.size
    assert burnt == len(drift_windows)


def test_lossless_battery(cases):
    # with eta_c eta_d = 1 overlap burns nothing, b_min = b_max, and the
    # step cost's throughput is the one-sided pair's on both sides of d_full
    for case in cases[:20]:
        batt = dataclasses.replace(case.cfg.batt, eta_c=1.0, eta_d=1.0)
        cfg = dataclasses.replace(case.cfg, batt=batt)
        oracle = solve_relaxation(cfg, case.c, case.sig)
        assert relative(oracle.value, offline_dispatch(cfg, case.c, case.sig).lp_bound) <= VALUE_RTOL
        assert relative(oracle.trace.abs_error(), oracle.value) <= TRACE_L1_RTOL
        assert relative(throughput(oracle.trace), oracle.throughput) <= THROUGHPUT_RTOL
        assert float(overlap(oracle.trace).max()) == 0.0


def test_trace_holds_the_limits_and_the_soc_envelope(cases):
    # at POWER_TOL and SOC_TOL; the relaxation may charge and discharge at
    # once, and every other bound holds
    for case in cases:
        broken = [
            message
            for _, violations in validate_trace(
                case.cfg, case.oracle.trace, power_tol=POWER_TOL, soc_tol=SOC_TOL
            )
            for message in violations
            if not message.startswith("complementarity")
        ]
        assert broken == []


def test_interior_trace_is_the_rule(cases):
    # where the closed form holds, the rule's change is optimal at every
    # step, and the tie-break takes it and realises it without overlap
    interior = [case for case in cases if closed_form_dispatch(case.cfg, case.c, case.sig)]
    assert len(interior) >= 50
    for case in interior:
        rule = rt_dispatch(case.cfg, case.c, case.sig)
        for name in COLUMNS:
            got, want = getattr(case.oracle.trace, name), getattr(rule, name)
            assert np.max(np.abs(got - want)) <= RULE_ATOL, name


def test_saturated_commands_hand_value():
    # command 20 MW against a reach of 8 MW: 12 MW short at both steps
    cfg = reference_system()
    oracle = solve_relaxation(cfg, 20.0, RegSignal(samples=np.ones(2), dt=DT_2S))
    assert oracle.value == pytest.approx(24.0, rel=VALUE_RTOL)
    assert oracle.trace.p_discharge.tolist() == pytest.approx([5.0, 5.0], abs=RULE_ATOL)
    assert oracle.trace.p_charge.tolist() == [0.0, 0.0]


def test_burn_instance_value_is_the_lp_bound():
    # at the SoC ceiling the relaxation burns energy by charging and
    # discharging at once: its optimum is the LP bound, which the one-sided
    # grid oracle stays above by a real margin
    cfg, sig = saturating_instance()
    oracle = solve_relaxation(cfg, SAT_C, sig)
    assert relative(oracle.value, offline_dispatch(cfg, SAT_C, sig).lp_bound) <= VALUE_RTOL
    assert relative(oracle.trace.abs_error(), oracle.value) <= TRACE_L1_RTOL
    overlap = oracle.trace.p_discharge * -oracle.trace.p_charge
    assert float(overlap.max()) > COMPLEMENTARITY_TOL
    one_sided = dp_oracle(cfg, SAT_C, sig)
    assert one_sided.objective > oracle.value + 5.0
