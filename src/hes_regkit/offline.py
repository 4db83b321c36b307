"""Offline optimal dispatch with perfect signal knowledge.

Benchmark side of the toolkit: given the whole window up front, find the
dispatch minimizing the L1 tracking error sum |C r[k] - p_hes[k]|. The LP
and the grid oracle are deliberately independent of the real-time rule:

- ``offline_dispatch``: linear program over (gen, load, discharge, charge,
  slack, soc) with the charge/discharge complementarity dropped. If the LP
  optimum never overlaps charge and discharge the relaxation is exact;
  otherwise overlap is netted out (which preserves p_hes and the objective
  and can only raise SoC), and if even that fails the window falls back to
  the grid oracle. Where the SoC pins its ceiling on long windows the
  relaxation burns energy through overlap that netting cannot repair, so
  the oracle is the route there.
- ``dp_oracle``: value iteration on a discretized SoC grid with a signed
  battery power grid, its backward pass and rollout on one cost function
  that interpolates the continuation with ``np.interp``. Complementarity is
  structural. The LP's fallback, and an upper bound on the true optimum.
  The LP's own value is checked, exactly, by ``_solve_relaxation``, an
  O(n) solve of the relaxation on a fixed slope basis that the tests use
  and no route calls yet;
  ``_relaxation_values`` runs its backward pass on many windows at once,
  the exact lower bound on any dispatch's error, the rule's included.
- ``closed_form_dispatch``: the saturation form p_hes = clip(C r, -(load+batt),
  gen+batt), the rule's own kernel with the battery headroom fixed at its
  power rating, valid only while SoC never touches its envelope; doubles as
  the hypothesis test for rule-vs-offline equivalence.

``offline_dispatch`` and ``dp_oracle`` refuse a window longer than
``STEP_LIMIT`` steps with ``BudgetError`` before any solve. The oracle's
cost is linear in the window length, so within the limit every window that
reaches it gets an answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .controller import (
    DispatchTrace,
    _check_inputs,
    _headroom,
    _net_output,
    _rule_columns,
    _soc_path,
    rt_dispatch,
    validate_trace,
)
from .model import HesConfig, soc_change
from .signals import RegSignal, _check_samples

__all__ = [
    "SolverError",
    "BudgetError",
    "EquivalenceError",
    "OfflineSolution",
    "BenchmarkReport",
    "offline_dispatch",
    "closed_form_dispatch",
    "dp_oracle",
    "benchmark_controller",
    "COMPLEMENTARITY_TOL",
    "EQUIVALENCE_RTOL",
    "STEP_LIMIT",
]

COMPLEMENTARITY_TOL = 1e-9  # MW^2, max tolerated p_discharge * (-p_charge)
EQUIVALENCE_RTOL = 1e-6  # relative gap allowed when the closed form applies
STEP_LIMIT = 20000  # steps per window that the offline benchmark accepts
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-8,
}
_REPAIR_OBJ_RTOL = 1e-6
_TRACE_POWER_TOL = 1e-6  # solver-grade slack for LP-derived traces
# the grid oracle's SoC nodes and battery power levels; an odd power count
# puts zero power on the grid, which keeps every SoC node feasible
_SOC_GRID_POINTS = 101
_POWER_GRID_POINTS = 101


class SolverError(RuntimeError):
    """The LP backend failed to return an optimal solution."""


class BudgetError(RuntimeError):
    """Window longer than the offline benchmark accepts (STEP_LIMIT)."""


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

    On the 'dp' route the numbers bracket the true optimum: objective is the
    cost of a feasible grid trace, an upper bound, and lp_bound (the
    relaxation, which may overlap charge and discharge) a lower bound. A
    rule-vs-offline gap taken from objective therefore understates the
    rule's shortfall, and one taken from lp_bound overstates it.
    """

    trace: DispatchTrace
    objective: float
    solver_path: str
    complementarity_clean: bool
    lp_bound: float | None = None
    dp_value: float | None = None


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


def _assemble_trace(
    cfg: HesConfig,
    target: np.ndarray,
    net_gl: np.ndarray,
    d: np.ndarray,
    pc: np.ndarray,
    soc: np.ndarray,
) -> DispatchTrace:
    # split net gen/load one-sidedly; the LP may park them on both sides at once
    g2 = np.clip(net_gl, 0.0, cfg.gen.p_max)
    l2 = g2 - net_gl
    return DispatchTrace(
        target=target,
        p_gen=g2,
        p_load=l2,
        p_discharge=d,
        p_charge=pc,
        p_hes=_net_output(g2, l2, d, pc),
        soc=soc,
    )


def _check_steps(n: int) -> None:
    if n > STEP_LIMIT:
        raise BudgetError(
            f"offline benchmark limited to {STEP_LIMIT} steps per window, "
            f"got {n}; downsample the window first"
        )


def offline_dispatch(cfg: HesConfig, c: float, sig: RegSignal) -> OfflineSolution:
    """Minimum-L1-error dispatch for one window, LP route with fallbacks."""
    _check_inputs(cfg, c, sig.dt)
    _check_steps(sig.n)
    batt = cfg.batt
    target = c * sig.samples
    g, l, d, pc, e_lp, lp_obj = _solve_lp(cfg, c, sig)

    overlap = float(np.max(d * (-pc)))
    if overlap <= COMPLEMENTARITY_TOL:
        soc = np.concatenate([[batt.soc_init], e_lp])
        trace = _assemble_trace(cfg, target, g - l, d, pc, soc)
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
    soc2 = _soc_path(batt, d2, pc2, cfg.dt, np.full(sig.n + 1, batt.soc_init))
    trace2 = _assemble_trace(cfg, target, g - l, d2, pc2, soc2)
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

    dp = dp_oracle(cfg, c, sig)
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
    headroom fixed at batt.p_max: the rule kernel (controller._rule_columns)
    with every step at full headroom. Returns None when the
    resulting SoC trajectory touches or crosses either envelope bound, in
    which case the form does not apply.
    """
    _check_inputs(cfg, c, sig.dt)
    batt = cfg.batt
    cols = _rule_columns(cfg, c, sig.samples[:, None], batt.soc_init, full_headroom=True)
    trace = DispatchTrace(*(col[:, 0] for col in cols))
    interior = trace.soc[1:]
    if interior.size and (
        float(interior.min()) <= batt.soc_min or float(interior.max()) >= batt.soc_max
    ):
        return None
    return OfflineSolution(
        trace=trace,
        objective=trace.abs_error(),
        solver_path="closed-form",
        complementarity_clean=True,
    )


def dp_oracle(cfg: HesConfig, c: float, sig: RegSignal) -> OfflineSolution:
    """Exact-on-grid dispatch via backward value iteration.

    State is SoC on a uniform grid; the action is battery power on a signed
    grid, one-sided by construction, so charge and discharge never overlap.
    Generator and load are memoryless and dealt with in closed form inside
    the stage cost. Continuation values are linearly interpolated.

    The reported objective is the cost of the rolled-out (grid-feasible)
    trajectory, so it upper-bounds the continuous optimum; ``dp_value`` is
    the interpolated root value. Rollout ties break toward the smallest
    battery power magnitude.
    """
    _check_inputs(cfg, c, sig.dt)
    _check_steps(sig.n)
    batt = cfg.batt
    n = sig.n
    gmax, lmax, pb = cfg.gen.p_max, cfg.load.p_max, batt.p_max
    lo, hi = batt.soc_min, batt.soc_max
    nodes = np.linspace(lo, hi, _SOC_GRID_POINTS)

    b = np.linspace(-pb, pb, _POWER_GRID_POINTS)
    pd_act = np.maximum(b, 0.0)
    pc_act = np.minimum(b, 0.0)
    de_act = soc_change(batt, pc_act, pd_act, cfg.dt)
    net_act = pd_act + pc_act

    target = c * sig.samples
    values = np.zeros((n + 1, _SOC_GRID_POINTS))

    def cost(k: int, e) -> np.ndarray:
        """Each action's cost from SoC e (a float, or nodes[:, None]) at step
        k: the stage error, with gen/load absorbing the residual up to their
        limits, plus the continuation; inf where the move leaves the
        envelope. The zero-power action keeps every node feasible."""
        resid = target[k] - net_act
        e_next = e + de_act
        total = np.maximum(resid - gmax, 0.0) + np.maximum(-lmax - resid, 0.0)
        total = total + np.interp(np.clip(e_next, lo, hi), nodes, values[k + 1])
        return np.where((e_next >= lo - 1e-12) & (e_next <= hi + 1e-12), total, np.inf)

    for k in range(n - 1, -1, -1):
        values[k] = cost(k, nodes[:, None]).min(axis=1)

    # forward rollout from the exact initial state
    acts = np.empty(n, dtype=np.intp)
    soc = np.empty(n + 1)
    e = soc[0] = batt.soc_init
    for k in range(n):
        total = cost(k, e)
        tied = np.flatnonzero(total <= total.min() + 1e-12)
        acts[k] = j = tied[np.argmin(np.abs(net_act[tied]))]
        e = soc[k + 1] = e + de_act[j]
    net_gl = np.clip(target - net_act[acts], -lmax, gmax)
    trace = _assemble_trace(cfg, target, net_gl, pd_act[acts], pc_act[acts], soc)
    return OfflineSolution(
        trace=trace,
        objective=trace.abs_error(),
        solver_path="dp",
        complementarity_clean=True,
        dp_value=float(np.interp(batt.soc_init, nodes, values[0])),
    )


# MW of tracking error a step of _solve_relaxation may give up to realise
# its output without overlap: 410x the largest rounding-size gap measured
# (2.4e-12 MW, on the drift windows of seeds 0-20), and 7e7 under the least
# a true burn gave up (0.071 MW); see test_rounding_burns_sit_under_the_tolerance
BURN_TOL_MW = 1e-9
# the basis slot of each of the step cost's seven slots, in order of d, once
# reflected (which reverses them), and of G_n's slope (0, 0); the cuts take
# the first and the last whole, so they lie outside the basis
_REFLECTED = (6, 5, 4, 3, 1, 0, -1)
_FLAT = 2
# reflected, the step's basis slots end max(D2, 0) - these knots from its start
_STEP_ENDS = [4, 3, 3, 2, 1, 0]
_DIFF = np.eye(6) - np.eye(6, k=1)  # slot ends @ _DIFF: their lengths


class _Relaxation(NamedTuple):
    """The relaxation's optimum G_0(soc_init), as its error (the LP's
    objective) and the least throughput that attains it, a trace that
    attains both, and the cost-to-go G_0 .. G_n: one row each, the length
    of G_k's segment on each slope of _Battery.basis, from soc_min up."""

    value: float
    throughput: float
    trace: DispatchTrace
    cost_to_go: np.ndarray


class _Battery:
    """The (p_discharge, p_charge) pairs of one step, by SoC change d.

    With u = d / alpha, a pair (p, -q), p, q in [0, p_max], changes the SoC
    by d when eta_c q - p / eta_d = u. Along that line p + (-q) falls as q
    grows, so b_max(d) is the pair without overlap and b_min(d) the one with
    the most overlap: p = p_max for d <= d_full and q = p_max beyond it. At
    d_full both are p_max, and b_min is 0. At output b the charge is q =
    (u + b / eta_d) / (eta_c - 1 / eta_d), and the throughput p + q = b + 2q.
    """

    def __init__(self, cfg: HesConfig):
        batt = cfg.batt
        self.p = batt.p_max
        self.eta_c, self.eta_d = batt.eta_c, batt.eta_d
        self.alpha = cfg.dt / batt.energy_capacity
        self.d_lo = -self.alpha * self.p / self.eta_d  # full discharge
        self.d_hi = self.alpha * self.p * self.eta_c  # full charge
        self.d_full = self.alpha * self.p * (self.eta_c - 1.0 / self.eta_d)
        self.s_d = self.eta_d / self.alpha  # |slope| of b_max for d < 0
        self.s_c = 1.0 / (self.alpha * self.eta_c)  # |slope| of b_max for d > 0
        self.loss = 1.0 - self.eta_d * self.eta_c
        # throughput slope at a fixed output; where nothing is lost b_min =
        # b_max, no step holds that output strictly inside, and it goes unused
        self.s_burn = -2.0 * self.eta_d / (self.alpha * self.loss) if self.loss > 0.0 else 0.0
        # the step cost's (error, throughput) slopes but its first and last,
        # in order of d: at b_min, too much output above d_full (the pair with
        # the most overlap, or without where nothing is lost); at t +
        # load_max, burning; at b_max, exact, below and above 0, then too little
        over = (-self.s_d, -self.s_d if self.loss > 0.0 else self.s_c)
        step = [over, (0.0, self.s_burn), (0.0, -self.s_d), (0.0, self.s_c), (self.s_d, -self.s_d)]
        # G_k's slopes, ascending: the step's negated and G_n's (0, 0); a
        # cost-to-go takes its slopes from these six alone, equal ones
        # merged. (Where nothing is lost the burn slope, (0, 0), is out of
        # order, but only rounding gives its slot any length.)
        self.basis = [(-err, -thr) for err, thr in reversed(step)]
        self.basis.insert(_FLAT, (0.0, 0.0))
        self.slopes = np.array(self.basis)

    def b_max(self, d: float) -> float:
        u = d / self.alpha
        return -self.eta_d * u if d <= 0.0 else -u / self.eta_c

    def b_min(self, d: float) -> float:
        u = d / self.alpha
        if d <= self.d_full:
            return self.p - (u + self.p / self.eta_d) / self.eta_c
        return self.eta_d * (self.eta_c * self.p - u) - self.p

    def where_b_max(self, y: np.ndarray) -> np.ndarray:
        """The d at which b_max(d) = y, for y in [-p_max, p_max]."""
        return np.where(y >= 0.0, -self.alpha * y / self.eta_d, -self.alpha * self.eta_c * y)

    def where_b_min(self, y: np.ndarray) -> np.ndarray:
        """The d at which b_min(d) = y, for y in [-p_max, p_max]."""
        return np.where(
            y >= 0.0,
            self.alpha * (self.eta_c * (self.p - y) - self.p / self.eta_d),
            self.alpha * (self.eta_c * self.p - (self.p + y) / self.eta_d),
        )

    def realise(self, d: float, b: float) -> tuple[float, float]:
        """(p_discharge, p_charge) with SoC change d and output b, for b in
        [b_min(d), b_max(d)]: from the pair without overlap, q grows by x
        and p by eta_d eta_c x, which keeps d and lowers b by
        (1 - eta_d eta_c) x."""
        u = d / self.alpha
        p, q = (-self.eta_d * u, 0.0) if d <= 0.0 else (0.0, u / self.eta_c)
        x = (self.b_max(d) - b) / self.loss if self.loss > 0.0 and b < self.b_max(d) else 0.0
        p = min(max(p + self.eta_d * self.eta_c * x, 0.0), self.p)
        q = min(max(q + x, 0.0), self.p)
        return p, -q


def _step_knots(bat: _Battery, target: np.ndarray, gen_max: float, load_max: float) -> np.ndarray:
    """The step costs' knots in d, seven for each target on a last axis:
    the ends of the step cost's seven slots, from d_lo. The output is b_min,
    too much, up to D1 = where_b_min(t + load_max); t + load_max, burning,
    up to D3 = where_b_max(t + load_max); b_max from there, too little past
    D2 = where_b_max(t - gen_max). b_min bends at d_full and b_max at 0."""
    p = bat.p
    d2 = np.clip(bat.where_b_max(np.clip(target - gen_max, -p, p)), bat.d_lo, bat.d_hi)
    up = np.clip(target + load_max, -p, p)
    d3 = np.clip(bat.where_b_max(up), bat.d_lo, d2)
    d1 = np.clip(bat.where_b_min(up), bat.d_lo, d3)
    ends = [np.minimum(d1, bat.d_full), d1, d3, np.clip(0.0, d3, d2), d2, np.maximum(d2, 0.0)]
    return np.stack([*ends, np.full_like(d1, bat.d_hi)], axis=-1)


def _backward(cfg: HesConfig, target: np.ndarray, keep: bool = False) -> tuple:
    """The relaxation's backward pass over target's columns, (steps, windows)
    of C r[k]: each window's G_0(soc_init), an (error, throughput) row, and
    G_k's basis slot ends from soc_min, row k of a (steps + 1, windows, 6)
    array if keep, else G_0's alone. A step adds G_{k+1}'s ends and the
    reflected step's, from g_k(max(D2, 0)), cuts max(D2, 0) off the low end
    and keeps soc_max - soc_min. The cuts take the step's last slot (d_hi -
    max(D2, 0) long) and first (at most d_full - d_lo = d_hi <= -d_lo) whole."""
    batt = cfg.batt
    gen_max, load_max, span = cfg.gen.p_max, cfg.load.p_max, batt.soc_max - batt.soc_min
    bat = _Battery(cfg)
    knots = _step_knots(bat, target, gen_max, load_max)
    low, top = knots[..., 5:6], knots[..., 5:6] + span
    step_ends = low - knots[..., _STEP_ENDS]
    # g_k(max(D2, 0)): output b = clip(t - gen_max, -p_max, 0), throughput -b
    out = np.clip(target - gen_max, -bat.p, 0.0)
    err = np.maximum(np.maximum(out - load_max - target, target - gen_max - out), 0.0)
    start = np.stack([err, -out], axis=-1)
    n, windows = target.shape
    value = np.zeros((windows, 2))
    ends = np.empty((n + 1 if keep else 1, windows, 6))
    g = ends[n % len(ends)]
    g[:] = [0.0, 0.0, span, span, span, span]
    for k in range(n - 1, -1, -1):
        g = np.add(g, step_ends[k], out=ends[k % len(ends)])
        # the step's start and its cut mostly cancel: add them first; the cut's
        # lengths @ slopes keeps throughput digits that ends @ slope differences lose
        value += start[k] + np.minimum(g, low[k]) @ _DIFF @ bat.slopes
        np.clip(g, low[k], top[k], out=g)
        g -= low[k]
    return value + np.minimum(g, batt.soc_init - batt.soc_min) @ _DIFF @ bat.slopes, ends


def _optimal_range(
    g_ends: list[float], step_ends: list[float], lo: float, hi: float
) -> tuple[float, float]:
    """The next SoCs x in [lo, hi] at which G_{k+1}(x) + g_k(x - e) is
    least, from the ends of G_{k+1}'s basis slots and of the step's slots,
    each ascending in x. The two slopes cancel where G's slot is the step's
    reflected slot; G's slot rises with x and the step's reflected slot
    falls, so one merge finds the range."""
    left = right = lo
    i = j = 0
    while i < 6 and j < 7 and i <= _REFLECTED[j]:
        end = min(g_ends[i], step_ends[j], hi)
        if end > lo:
            right = end
            if i < _REFLECTED[j]:
                left = end
        if end >= hi:
            break
        if g_ends[i] <= step_ends[j]:
            i += 1
        else:
            j += 1
    return left, right


def _rule_change(cfg: HesConfig, t: float, e: float) -> float:
    """The SoC change the priority rule makes at SoC e for target t."""
    gen_max, load_max = cfg.gen.p_max, cfg.load.p_max
    resid = t - min(max(t, 0.0), gen_max) + min(max(-t, 0.0), load_max)
    d_max, c_max = (float(h) for h in _headroom(cfg, e))
    p_d = max(min(resid, d_max), 0.0)
    p_c = min(max(resid, c_max), 0.0)
    return soc_change(cfg.batt, p_c, p_d, cfg.dt)


def _solve_relaxation(cfg: HesConfig, c: float, sig: RegSignal) -> _Relaxation:
    """Exact O(n) solve of the LP _solve_lp solves, and a least-throughput
    trace that attains it. No route calls it yet: it is the tests' oracle
    for HiGHS until the offline route takes it in place of _solve_lp.

    The relaxation minimises sum |C r[k] - p_hes[k]| with the charge and
    discharge complementarity dropped. Among its optima this takes one with
    the least battery throughput, sum (p_discharge - p_charge): at a fixed
    SoC change and output, overlap adds to both powers, so throughput is the
    convex stand-in for overlap. Values and slopes are pairs (error,
    throughput), compared lexicographically, as Python tuples are.

    Its cost-to-go on [soc_min, soc_max], G_n = (0, 0) and G_k(e) = min
    over d of g_k(d) + G_{k+1}(e + d), is convex and piecewise linear. The
    step cost of a SoC change d is least at the output b = clip(t_k +
    load.p_max, b_min(d), b_max(d)), t_k = C r[k], with error dist(t_k, [b -
    load.p_max, b + gen.p_max]) and throughput b + 2q (see _Battery). G_k is
    the infimal convolution of G_{k+1} with g_k reflected (Rockafellar,
    Convex Analysis, 1970, section 5), cut to the envelope. Its slopes come
    from one fixed sorted basis of six, so _backward holds G_k as its value
    at soc_min and the ends of the basis slots.

    The trace is recovered forward from soc_init. At SoC e the optimal
    changes form an interval; its point nearest the change the priority
    rule makes from e is taken, and realised at clip(t_k + load.p_max,
    b_min, b_max), with generator and load split as _assemble_trace splits
    them. Where the closed form holds, the rule's step is optimal at every
    step, so the trace is the rule's up to rounding. Where the output lies
    under b_max by no more than BURN_TOL_MW, the step is realised at b_max,
    without overlap, at that much error: the lexicographic order would
    otherwise burn energy at the SoC ceiling to save an error of rounding
    size."""
    _check_inputs(cfg, c, sig.dt)
    _check_steps(sig.n)
    batt = cfg.batt
    gen_max, load_max = cfg.gen.p_max, cfg.load.p_max
    lo, hi = batt.soc_min, batt.soc_max
    bat = _Battery(cfg)
    target = c * sig.samples
    n = sig.n
    value, ends = _backward(cfg, target[:, None], keep=True)

    p_discharge, p_charge, net_gl = np.empty((3, n))
    soc = np.empty(n + 1)
    e = soc[0] = batt.soc_init
    slot_ends = (lo + ends[1:, 0]).tolist()
    knots = _step_knots(bat, target, gen_max, load_max)
    for k, (t, step) in enumerate(zip(target.tolist(), knots.tolist())):
        step_ends = [e + x for x in step]
        left, right = _optimal_range(
            slot_ends[k], step_ends, max(lo, e + bat.d_lo), min(hi, e + bat.d_hi)
        )
        d = min(max(_rule_change(cfg, t, e), left - e), right - e)
        b_max = bat.b_max(d)
        b = min(max(t + load_max, bat.b_min(d)), b_max)
        b = b_max if b_max - b <= BURN_TOL_MW else b
        p_discharge[k], p_charge[k] = bat.realise(d, b)
        net_gl[k] = min(max(t - b, -load_max), gen_max)
        e = soc[k + 1] = e + soc_change(batt, p_charge[k], p_discharge[k], cfg.dt)

    trace = _assemble_trace(cfg, target, net_gl, p_discharge, p_charge, soc)
    return _Relaxation(*value[0].tolist(), trace, np.diff(ends[:, 0], prepend=0.0))


def _relaxation_values(cfg: HesConfig, c: float, samples: np.ndarray) -> np.ndarray:
    """_solve_relaxation(cfg, c, RegSignal(row, cfg.dt)).value for each row
    of samples, (windows, steps), from one backward pass over all of them."""
    _check_inputs(cfg, c, cfg.dt)
    samples = np.asarray(samples, dtype=float)
    _check_samples(samples, 2)
    _check_steps(samples.shape[1])
    return _backward(cfg, c * samples.T)[0][:, 0]


@dataclass(frozen=True)
class BenchmarkReport:
    """Rule-vs-offline comparison for one (config, capacity, window).

    gap = j_on - j_off. On the 'dp' route j_off is an upper bound on the
    offline optimum, so gap understates the rule's shortfall there.
    """

    c: float
    j_on: float
    j_off: float
    gap: float
    hypothesis_held: bool
    solver_path: str

    def to_dict(self) -> dict:
        return asdict(self)


def benchmark_controller(cfg: HesConfig, c: float, sig: RegSignal) -> BenchmarkReport:
    """Compare the real-time rule against the offline optimum on one window.

    When the closed form applies (SoC strictly interior throughout), the two
    objectives must agree to EQUIVALENCE_RTOL; a larger gap raises
    EquivalenceError because it means one of the routes is wrong.
    """
    j_on = rt_dispatch(cfg, c, sig).abs_error()
    off = offline_dispatch(cfg, c, sig)
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
