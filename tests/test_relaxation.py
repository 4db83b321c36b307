"""The exact relaxation oracle (tests/relaxation.py) against the LP that
offline_dispatch solves, and against the priority rule.

Every tolerance is pinned here from its worst case over FLEETS, measured
with numpy 2.4.6 and scipy 1.17.1 (HiGHS) on x86-64.
"""

from collections import Counter
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
from relaxation import Relaxation, solve_relaxation

FLEETS = 200
# |value - lp_bound| / max(1, lp_bound): worst 4.0e-12 measured, 25x under
VALUE_RTOL = 1e-10
# |sum |target - p_hes| - value| / max(1, value): worst 4.0e-12 measured
TRACE_L1_RTOL = 1e-10
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


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def test_value_is_the_lp_bound(cases):
    routes = Counter(case.lp.solver_path for case in cases)
    assert set(routes) == {"lp", "lp-with-repair", "dp"}, routes
    worst = max(relative(case.oracle.value, case.lp.lp_bound) for case in cases)
    assert worst <= VALUE_RTOL


def test_cost_to_go_has_at_most_five_pieces(cases):
    # its slopes are taken from {0, +-eta_d/alpha, +-1/(alpha eta_c)}
    for case in cases:
        assert max(len(g.slopes) for g in case.oracle.cost_to_go) <= 5


def test_trace_attains_the_value(cases):
    worst = max(relative(case.oracle.trace.abs_error(), case.oracle.value) for case in cases)
    assert worst <= TRACE_L1_RTOL


def test_trace_holds_the_limits_and_the_soc_envelope(cases):
    # at POWER_TOL and SOC_TOL; the relaxation may charge and discharge at
    # once, and every other bound holds
    for case in cases:
        broken = [
            message
            for _, verdict in validate_trace(
                case.cfg, case.oracle.trace, power_tol=POWER_TOL, soc_tol=SOC_TOL
            )
            for message in verdict.violations
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
