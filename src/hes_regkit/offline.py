"""Offline optimal dispatch with perfect signal knowledge.

Benchmark side of the toolkit: given the whole window up front, find the
dispatch minimizing the L1 tracking error sum |C r[k] - p_hes[k]|. The LP
and the grid oracle are deliberately independent of the real-time rule:

- ``offline_dispatch``: linear program over (gen, load, discharge, charge,
  slack, soc) with the charge/discharge complementarity dropped. If the LP
  optimum never overlaps charge and discharge the relaxation is exact;
  otherwise overlap is netted out (which preserves p_hes and the objective
  and can only raise SoC), and if even that fails a small instance falls
  back to the grid oracle.
- ``dp_oracle``: value iteration on a discretized SoC grid with a signed
  battery power grid. Complementarity is structural. Used to sanity-check
  the LP on small instances.
- ``closed_form_dispatch``: the saturation form p_hes = clip(C r, -(load+batt),
  gen+batt), the rule's own allocation with the battery headroom fixed at
  its power rating, valid only while SoC never touches its envelope; doubles
  as the hypothesis test for rule-vs-offline equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .controller import (
    DispatchTrace,
    _battery_share,
    _check_inputs,
    _split_command,
    rt_dispatch,
    validate_trace,
)
from .model import BatteryParams, HesConfig
from .signals import RegSignal

__all__ = [
    "SolverError",
    "BudgetError",
    "EquivalenceError",
    "OfflineSolution",
    "DpOracleConfig",
    "BenchmarkReport",
    "offline_dispatch",
    "closed_form_dispatch",
    "dp_oracle",
    "benchmark_controller",
    "COMPLEMENTARITY_TOL",
    "EQUIVALENCE_RTOL",
]

COMPLEMENTARITY_TOL = 1e-9  # MW^2, max tolerated p_discharge * (-p_charge)
EQUIVALENCE_RTOL = 1e-6  # relative gap allowed when the closed form applies
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-8,
}
_REPAIR_OBJ_RTOL = 1e-6
_TRACE_POWER_TOL = 1e-6  # solver-grade slack for LP-derived traces


class SolverError(RuntimeError):
    """The LP backend failed to return an optimal solution."""


class BudgetError(RuntimeError):
    """Instance too large for the requested exact method."""


class EquivalenceError(RuntimeError):
    """Rule-based and offline objectives disagree although they must match."""


@dataclass(frozen=True, eq=False)
class OfflineSolution:
    """Offline dispatch result.

    solver_path is one of 'closed-form', 'lp', 'lp-with-repair', 'dp'.
    complementarity_clean records whether the route ever produced overlapping
    charge/discharge (False for repaired or post-LP fallback solutions).
    lp_bound carries the LP relaxation optimum whenever an LP was solved;
    dp_value carries the grid oracle's root value when the grid oracle ran.
    """

    trace: DispatchTrace
    objective: float
    solver_path: str
    complementarity_clean: bool
    lp_bound: float | None = None
    dp_value: float | None = None


@dataclass(frozen=True)
class DpOracleConfig:
    """Grid sizes for the dynamic-programming oracle."""

    soc_grid_points: int = 101
    power_grid_points: int = 101

    def __post_init__(self) -> None:
        if self.soc_grid_points < 3:
            raise ValueError(f"soc_grid_points must be >= 3, got {self.soc_grid_points}")
        if self.power_grid_points < 3 or self.power_grid_points % 2 == 0:
            raise ValueError(
                "power_grid_points must be an odd integer >= 3 (so zero power "
                f"is on the grid), got {self.power_grid_points}"
            )


def _solve_lp(cfg: HesConfig, c: float, sig: RegSignal):
    """Relaxed tracking LP. Variable blocks [g, l, d, pc, w, e], each length N.

    minimize sum(w)
    s.t.  -w <= C r - (g - l + d + pc) <= w
          e[k] - e[k-1] + eta_c*a*pc[k] + (a/eta_d)*d[k] = 0,  a = dt/cap
          asset bounds; e in the SoC envelope; w >= 0
    """
    n = sig.n
    batt = cfg.batt
    alpha = cfg.dt / batt.energy_capacity
    target = c * sig.samples
    og, ol, od, oc, ow, oe = 0, n, 2 * n, 3 * n, 4 * n, 5 * n
    ks = np.arange(n)

    # dynamics equalities
    eq_rows = np.concatenate([ks, ks, ks, ks[1:]])
    eq_cols = np.concatenate([oe + ks, oc + ks, od + ks, oe + ks[1:] - 1])
    eq_data = np.concatenate(
        [
            np.ones(n),
            np.full(n, batt.eta_c * alpha),
            np.full(n, alpha / batt.eta_d),
            np.full(n - 1, -1.0),
        ]
    )
    b_eq = np.zeros(n)
    b_eq[0] = batt.soc_init

    # tracking inequalities, rows 2k and 2k+1
    up = 2 * ks
    dn = 2 * ks + 1
    ub_rows = np.concatenate([up, up, up, up, up, dn, dn, dn, dn, dn])
    ub_cols = np.concatenate(
        [og + ks, ol + ks, od + ks, oc + ks, ow + ks] * 2
    )
    ones = np.ones(n)
    ub_data = np.concatenate(
        [ones, -ones, ones, ones, -ones, -ones, ones, -ones, -ones, -ones]
    )
    b_ub = np.empty(2 * n)
    b_ub[up] = target
    b_ub[dn] = -target

    bounds = np.empty((6 * n, 2))
    bounds[og:ol] = (0.0, cfg.gen.p_max)
    bounds[ol:od] = (0.0, cfg.load.p_max)
    bounds[od:oc] = (0.0, batt.p_max)
    bounds[oc:ow] = (-batt.p_max, 0.0)
    bounds[ow:oe] = (0.0, np.inf)
    bounds[oe:] = (batt.soc_min, batt.soc_max)

    res = linprog(
        c=np.concatenate([np.zeros(4 * n), np.ones(n), np.zeros(n)]),
        A_ub=sp.coo_matrix((ub_data, (ub_rows, ub_cols)), shape=(2 * n, 6 * n)),
        b_ub=b_ub,
        A_eq=sp.coo_matrix((eq_data, (eq_rows, eq_cols)), shape=(n, 6 * n)),
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise SolverError(f"tracking LP failed (status {res.status}): {res.message}")
    x = res.x
    g = np.clip(x[og:ol], 0.0, cfg.gen.p_max)
    l = np.clip(x[ol:od], 0.0, cfg.load.p_max)
    d = np.clip(x[od:oc], 0.0, batt.p_max)
    pc = np.clip(x[oc:ow], -batt.p_max, 0.0)
    e = np.clip(x[oe:], batt.soc_min, batt.soc_max)
    return g, l, d, pc, e, float(res.fun)


def _resimulate_soc(batt: BatteryParams, d: np.ndarray, pc: np.ndarray, dt: float) -> np.ndarray:
    # cumsum is a sequential running sum, term for term the same arithmetic
    # as soc_step, so closed-form trajectories compare bitwise against rule
    # trajectories
    soc = np.empty(d.size + 1)
    soc[0] = batt.soc_init
    soc[1:] = -(batt.eta_c * pc + d / batt.eta_d) * dt / batt.energy_capacity
    return np.cumsum(soc, out=soc)


def _assemble_trace(
    cfg: HesConfig,
    target: np.ndarray,
    g: np.ndarray,
    l: np.ndarray,
    d: np.ndarray,
    pc: np.ndarray,
    soc: np.ndarray,
) -> DispatchTrace:
    # re-split gen/load one-sidedly; LP may park them on both sides at once
    net_gl = g - l
    g2 = np.clip(net_gl, 0.0, cfg.gen.p_max)
    l2 = g2 - net_gl
    return DispatchTrace(
        target=target,
        p_gen=g2,
        p_load=l2,
        p_discharge=d,
        p_charge=pc,
        p_hes=g2 - l2 + d + pc,
        soc=soc,
    )


def offline_dispatch(
    cfg: HesConfig,
    c: float,
    sig: RegSignal,
    *,
    dp_grid: DpOracleConfig | None = None,
    dp_step_budget: int = 200,
) -> OfflineSolution:
    """Minimum-L1-error dispatch for one window, LP route with fallbacks."""
    _check_inputs(cfg, c, sig.dt)
    batt = cfg.batt
    target = c * sig.samples
    g, l, d, pc, e_lp, lp_obj = _solve_lp(cfg, c, sig)

    overlap = float(np.max(d * (-pc)))
    if overlap <= COMPLEMENTARITY_TOL:
        soc = np.concatenate([[batt.soc_init], e_lp])
        trace = _assemble_trace(cfg, target, g, l, d, pc, soc)
        return OfflineSolution(
            trace=trace,
            objective=trace.abs_error(),
            solver_path="lp",
            complementarity_clean=True,
            lp_bound=lp_obj,
        )

    # net out the overlap: p_hes and the objective are untouched, SoC can
    # only move up (less loss), so only the ceiling needs re-checking
    net = d + pc
    d2 = np.maximum(net, 0.0)
    pc2 = np.minimum(net, 0.0)
    soc2 = _resimulate_soc(batt, d2, pc2, cfg.dt)
    trace2 = _assemble_trace(cfg, target, g, l, d2, pc2, soc2)
    obj2 = trace2.abs_error()
    soc_tol = 2e-8 * sig.n + 1e-9  # resimulation compounds solver noise
    repaired_ok = (
        not validate_trace(cfg, trace2, power_tol=_TRACE_POWER_TOL, soc_tol=soc_tol)
        and abs(obj2 - lp_obj) <= _REPAIR_OBJ_RTOL * max(1.0, lp_obj)
    )
    if repaired_ok:
        return OfflineSolution(
            trace=trace2,
            objective=obj2,
            solver_path="lp-with-repair",
            complementarity_clean=False,
            lp_bound=lp_obj,
        )

    if sig.n > dp_step_budget:
        raise BudgetError(
            f"complementarity repair failed and the exact oracle is limited to "
            f"{dp_step_budget} steps (window has {sig.n}); downsample the window"
        )
    dp = dp_oracle(cfg, c, sig, grid=dp_grid or DpOracleConfig())
    return OfflineSolution(
        trace=dp.trace,
        objective=dp.objective,
        solver_path="dp",
        complementarity_clean=False,
        lp_bound=lp_obj,
        dp_value=dp.dp_value,
    )


def closed_form_dispatch(cfg: HesConfig, c: float, sig: RegSignal) -> OfflineSolution | None:
    """Saturation-form dispatch, valid only while SoC stays strictly interior.

    Output clips the command into [-(load.p_max + batt.p_max),
    gen.p_max + batt.p_max] with the rule's priority allocation, the battery
    headroom fixed at batt.p_max. Returns None when the resulting SoC
    trajectory touches or crosses either envelope bound, in which case the
    form does not apply.
    """
    _check_inputs(cfg, c, sig.dt)
    batt = cfg.batt
    target, p_gen, p_load, resid = _split_command(cfg, c, sig.samples)
    p_discharge, p_charge = _battery_share(resid, batt.p_max, -batt.p_max)
    soc = _resimulate_soc(batt, p_discharge, p_charge, cfg.dt)
    interior = soc[1:]
    if interior.size and (
        float(interior.min()) <= batt.soc_min or float(interior.max()) >= batt.soc_max
    ):
        return None
    trace = DispatchTrace(
        target=target,
        p_gen=p_gen,
        p_load=p_load,
        p_discharge=p_discharge,
        p_charge=p_charge,
        p_hes=p_gen - p_load + p_discharge + p_charge,
        soc=soc,
    )
    return OfflineSolution(
        trace=trace,
        objective=trace.abs_error(),
        solver_path="closed-form",
        complementarity_clean=True,
    )


def dp_oracle(
    cfg: HesConfig,
    c: float,
    sig: RegSignal,
    grid: DpOracleConfig | None = None,
    *,
    allow_simultaneous: bool = False,
    step_budget: int = 200,
) -> OfflineSolution:
    """Exact-on-grid dispatch via backward value iteration.

    State is SoC on a uniform grid; the action is battery power on a signed
    grid (one-sided by construction, so complementarity cannot be violated
    unless ``allow_simultaneous`` explicitly enumerates charge/discharge
    pairs). Generator and load are memoryless and dealt with in closed form
    inside the stage cost. Continuation values are linearly interpolated.

    The reported objective is the cost of the rolled-out (grid-feasible)
    trajectory, so it upper-bounds the continuous optimum; ``dp_value`` is
    the interpolated root value. Rollout ties break toward the smallest
    battery power magnitude.
    """
    _check_inputs(cfg, c, sig.dt)
    if sig.n > step_budget:
        raise BudgetError(
            f"dp oracle limited to {step_budget} steps, got {sig.n}; "
            "downsample the window or raise step_budget"
        )
    grid = grid or DpOracleConfig()
    batt = cfg.batt
    n = sig.n
    gmax, lmax, pb = cfg.gen.p_max, cfg.load.p_max, batt.p_max
    nodes = np.linspace(batt.soc_min, batt.soc_max, grid.soc_grid_points)

    if allow_simultaneous:
        half = grid.power_grid_points // 2 + 1
        dg = np.linspace(0.0, pb, half)
        cg = np.linspace(-pb, 0.0, half)
        pd_act = np.repeat(dg, half)
        pc_act = np.tile(cg, half)
    else:
        b = np.linspace(-pb, pb, grid.power_grid_points)
        pd_act = np.maximum(b, 0.0)
        pc_act = np.minimum(b, 0.0)
    de_act = -(batt.eta_c * pc_act + pd_act / batt.eta_d) * cfg.dt / batt.energy_capacity
    net_act = pd_act + pc_act

    target = c * sig.samples

    def stage_cost(t_k: float) -> np.ndarray:
        # best-case gen/load absorb the residual up to their limits
        resid = t_k - net_act
        return np.maximum(resid - gmax, 0.0) + np.maximum(-lmax - resid, 0.0)

    # candidate next-states per (node, action); infeasible moves masked out.
    # the zero-power action keeps every node feasible, so minima exist.
    e_next = nodes[:, None] + de_act[None, :]
    feasible = (e_next >= batt.soc_min - 1e-12) & (e_next <= batt.soc_max + 1e-12)
    e_next_flat = np.clip(e_next, batt.soc_min, batt.soc_max).ravel()

    values = np.zeros((n + 1, grid.soc_grid_points))
    for k in range(n - 1, -1, -1):
        cont = np.interp(e_next_flat, nodes, values[k + 1]).reshape(e_next.shape)
        total = stage_cost(float(target[k]))[None, :] + cont
        values[k] = np.where(feasible, total, np.inf).min(axis=1)

    # forward rollout from the exact initial state
    p_gen = np.empty(n)
    p_load = np.empty(n)
    p_discharge = np.empty(n)
    p_charge = np.empty(n)
    soc = np.empty(n + 1)
    e = batt.soc_init
    soc[0] = e
    for k in range(n):
        e2 = e + de_act
        ok = (e2 >= batt.soc_min - 1e-12) & (e2 <= batt.soc_max + 1e-12)
        cont = np.interp(
            np.clip(e2, batt.soc_min, batt.soc_max), nodes, values[k + 1]
        )
        total = np.where(ok, stage_cost(float(target[k])) + cont, np.inf)
        best = float(total.min())
        tied = np.flatnonzero(total <= best + 1e-12)
        j = int(tied[np.argmin(np.abs(net_act[tied]))])
        resid = float(target[k]) - net_act[j]
        net_gl = min(max(resid, -lmax), gmax)
        p_gen[k] = max(net_gl, 0.0)
        p_load[k] = max(-net_gl, 0.0)
        p_discharge[k] = pd_act[j]
        p_charge[k] = pc_act[j]
        e = e + de_act[j]
        soc[k + 1] = e
    trace = DispatchTrace(
        target=target,
        p_gen=p_gen,
        p_load=p_load,
        p_discharge=p_discharge,
        p_charge=p_charge,
        p_hes=p_gen - p_load + p_discharge + p_charge,
        soc=soc,
    )
    return OfflineSolution(
        trace=trace,
        objective=trace.abs_error(),
        solver_path="dp",
        complementarity_clean=not allow_simultaneous,
        dp_value=float(np.interp(batt.soc_init, nodes, values[0])),
    )


@dataclass(frozen=True)
class BenchmarkReport:
    """Rule-vs-offline comparison for one (config, capacity, window)."""

    c: float
    j_on: float
    j_off: float
    gap: float
    hypothesis_held: bool
    solver_path: str

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "j_on": self.j_on,
            "j_off": self.j_off,
            "gap": self.gap,
            "hypothesis_held": self.hypothesis_held,
            "solver_path": self.solver_path,
        }


def benchmark_controller(
    cfg: HesConfig,
    c: float,
    sig: RegSignal,
    *,
    dp_grid: DpOracleConfig | None = None,
    dp_step_budget: int = 200,
) -> BenchmarkReport:
    """Compare the real-time rule against the offline optimum on one window.

    When the closed form applies (SoC strictly interior throughout), the two
    objectives must agree to EQUIVALENCE_RTOL; a larger gap raises
    EquivalenceError because it means one of the routes is wrong.
    """
    j_on = rt_dispatch(cfg, c, sig).abs_error()
    off = offline_dispatch(cfg, c, sig, dp_grid=dp_grid, dp_step_budget=dp_step_budget)
    return _benchmark_report(cfg, c, sig, j_on, off)


def _benchmark_report(
    cfg: HesConfig, c: float, sig: RegSignal, j_on: float, off: OfflineSolution
) -> BenchmarkReport:
    """benchmark_controller from a rule objective and an offline solution
    already computed."""
    held = closed_form_dispatch(cfg, c, sig) is not None
    gap = j_on - off.objective
    if held and abs(gap) > EQUIVALENCE_RTOL * max(1.0, off.objective):
        raise EquivalenceError(
            f"rule-based objective {j_on!r} and offline objective "
            f"{off.objective!r} disagree although SoC stayed interior"
        )
    return BenchmarkReport(
        c=c,
        j_on=j_on,
        j_off=off.objective,
        gap=gap,
        hypothesis_held=held,
        solver_path=off.solver_path,
    )
