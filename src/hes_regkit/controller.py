"""Real-time rule-based dispatch.

The controller splits the scaled command C * r[k] across assets by priority:
cheap assets first (generator when injecting, load when absorbing), battery
last, throttled by SoC headroom so the envelope is never violated.

For an upward command (r > 0):
    p_gen       = min(C r, gen.p_max)
    p_discharge = max(0, min(C r - p_gen, delta_d * batt.p_max))
For a downward command (r <= 0):
    p_load      = min(-C r, load.p_max)
    p_charge    = min(0, max(C r + p_load, -delta_c * batt.p_max))

delta_c / delta_d in [0, 1] derate battery power to what the SoC envelope can
absorb or supply within one interval, including conversion losses:
    delta_c = min((soc_max - e) * cap / (eta_c * dt * p_max), 1)
    delta_d = min(eta_d * (e - soc_min) * cap / (dt * p_max), 1)

One block body (_rule_block) runs the rule over a block of steps of many
windows at once: the SoC-free split of the command (_split_command), then
the battery's half, then the net output. The split is one product, target
= c * r, and then in-place ufunc passes over contiguous arrays, as is the
battery's share (_battery_share). While no SoC the battery can reach from
e0 derates it, its headroom is (p_max, -p_max) whatever the commands, and
so is its share: _free_steps finds that prefix of k* steps from e0, the
window length and the battery alone, and the block runs its steps in one
pass, the SoC as one running sum of model.soc_change (_soc_path). Only the
steps after it go through the loop that steps the battery (headroom,
battery share, SoC update). The prefix makes the same additions as the
loop, so the route changes no bit.

rt_step, rt_dispatch and offline.closed_form_dispatch (the whole window in
the prefix) run the block once over the whole window (_rule_columns).
Every many-window call runs one stream (_rule_stream): all capacities step
together through the windows a block of steps at a time, and each step's
|target - p_hes| joins the running L1 sums in step order. rt_error_sums
keeps only a rotating SoC block, which is all bid scoring needs; where the
prefix covers the window it needs neither the split nor the SoC: at full
headroom the net output is the command clipped to the assets' reach, first
to [-load.p_max, gen.p_max], then its rest to [-batt.p_max, batt.p_max]
(_saturated_error), which gives the same |target - p_hes| bit for bit.
rt_dispatch_batch is the stream for one capacity, writing each window's
whole SoC path. Every window starts at cfg.batt.soc_init (rt_step at the
state it is given), every entry point gives the same bits, whatever the
block size, and so do the bid curve and every artifact built from them.

validate_trace runs the envelope check of model.check_step_feasible once
over a trace's columns. Trace files go through reports.write_csv /
read_csv, with the capacity and the initial SoC as '#' comment lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    POWER_TOL,
    SOC_TOL,
    BatteryParams,
    DispatchStep,
    FeasibilityVerdict,
    HesConfig,
    SocState,
    _envelope_violations,
    ensure_dispatchable,
    soc_change,
)
from .reports import format_float, read_csv, write_csv
from .signals import RegSignal, SignalRangeError, _check_samples

__all__ = [
    "DispatchTrace",
    "BatchDispatch",
    "rt_step",
    "rt_dispatch",
    "rt_dispatch_batch",
    "validate_trace",
    "save_trace_csv",
    "load_trace_csv",
]


@dataclass(frozen=True, eq=False)
class DispatchTrace:
    """Per-step dispatch over one window, as parallel float64 arrays.

    ``soc`` has one extra entry: soc[0] is the initial state, soc[k+1] the
    state after step k.
    """

    target: np.ndarray
    p_gen: np.ndarray
    p_load: np.ndarray
    p_discharge: np.ndarray
    p_charge: np.ndarray
    p_hes: np.ndarray
    soc: np.ndarray

    def __post_init__(self) -> None:
        n = None
        for name in ("target", "p_gen", "p_load", "p_discharge", "p_charge", "p_hes"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError(f"trace column {name} has {arr.size} rows, expected {n}")
        soc = np.ascontiguousarray(self.soc, dtype=float)
        soc.setflags(write=False)
        object.__setattr__(self, "soc", soc)
        if soc.size != (n or 0) + 1:
            raise ValueError(f"soc needs {n + 1} entries, got {soc.size}")

    @property
    def n_steps(self) -> int:
        return int(self.target.size)

    def abs_error(self) -> float:
        """L1 tracking error, sum |target - p_hes|."""
        return float(np.sum(np.abs(self.target - self.p_hes)))


# capacities x windows x steps per step-block array in _rule_stream: in
# perfbench runs (10 s, two rounds, 2-CPU Xeon) asym-sweep took 0.039-0.042 s
# at 1 << 12 and 1 << 13, and 0.042-0.049 s at 1 << 10, 1 << 11 and 1 << 14
# to 1 << 16; bid-year, whose coarse sweep runs one step per block at every
# one of these sizes, spread over 0.24-0.28 s with no size ahead. The
# smaller block holds less memory
_STEP_BLOCK_ELEMENTS = 1 << 12


def _split_command(cfg: HesConfig, c, r, out) -> None:
    """The SoC-free half of the rule: target, p_gen, p_load and the residual
    the battery is asked for (>= 0 where r > 0, <= 0 elsewhere), into the
    four arrays of ``out``."""
    target, p_gen, p_load, resid = out
    np.multiply(c, r, out=target)
    # clips of target and -target, in place: np.minimum and np.maximum may
    # pick either of two tied zeros, and + 0.0 turns a -0.0 into 0.0 and
    # leaves every other value as it is (model keeps limits off -0.0)
    np.maximum(target, 0.0, out=p_gen)
    np.minimum(p_gen, cfg.gen.p_max, out=p_gen)
    p_gen += 0.0
    np.negative(target, out=p_load)
    np.maximum(p_load, 0.0, out=p_load)
    np.minimum(p_load, cfg.load.p_max, out=p_load)
    p_load += 0.0
    # the rule's one signed zero: at r = +0.0 (no bit set), p_load =
    # min(-target, load.p_max) is -0.0, and trace files show it. It is 0.0
    # where r > 0, also where c * r underflows to +0.0, so r marks it
    np.negative(p_load, out=p_load, where=r.view(np.int64) == 0)
    np.subtract(target, p_gen, out=resid)
    resid += p_load


def _battery_share(resid, d_max, c_max, out):
    """Battery (p_discharge, p_charge) for a residual, within [c_max, d_max],
    into the two arrays of ``out``.

    Adding 0.0 turns a -0.0 (a tie between zeros, e.g. c_max = -0.0 at the
    SoC ceiling) into 0.0 and leaves every other value as it is. Not
    np.clip: where rounding leaves d_max a hair below 0 at the SoC floor,
    clip gives d_max and the rule gives 0.0.
    """
    p_discharge, p_charge = out
    np.minimum(resid, d_max, out=p_discharge)
    np.maximum(p_discharge, 0.0, out=p_discharge)
    p_discharge += 0.0
    np.maximum(resid, c_max, out=p_charge)
    np.minimum(p_charge, 0.0, out=p_charge)
    p_charge += 0.0
    return p_discharge, p_charge


def _headroom(cfg: HesConfig, e):
    """Battery limits (d_max, c_max) at SoC e: delta_d * p_max and
    -delta_c * p_max, the power the envelope lets through in one step."""
    batt = cfg.batt
    pb, cap, dt = batt.p_max, batt.energy_capacity, cfg.dt
    delta_d = np.minimum(batt.eta_d * (e - batt.soc_min) * cap / (dt * pb), 1.0)
    delta_c = np.minimum((batt.soc_max - e) * cap / (batt.eta_c * dt * pb), 1.0)
    return delta_d * pb, -delta_c * pb


def _free_steps(cfg: HesConfig, e0: float, n_steps: int) -> int:
    """k*: how many leading steps of an n_steps window from SoC e0 run at
    full headroom, (p_max, -p_max), whatever the commands.

    A step moves the SoC by at most m, the larger |soc_change| at full
    discharge and at full charge; within the envelope the sum rounds by at
    most 2**-53 a step. So step j's SoC lies within j * step of e0, and as
    _headroom is monotone in e, step j runs at full headroom if it does at
    both ends. The candidate is where the real-arithmetic thresholds of full
    headroom cross; _headroom's own check then moves it a step or two at most.
    Where a single full step from e0 would cross them, k* is 0 unchecked:
    a k* too small changes the route, never the bits.
    """
    batt = cfg.batt
    m_dis = -soc_change(batt, 0.0, batt.p_max, cfg.dt)  # one full-power step
    m_ch = soc_change(batt, -batt.p_max, 0.0, cfg.dt)
    margin = min(e0 - batt.soc_min - m_dis, batt.soc_max - m_ch - e0)
    if not (n_steps > 0 and margin >= 0.0):  # one full step from e0 may bind
        return 0
    # the margins cover the rounding of j * step and of e0 -+ j * step too
    step = max(m_dis, m_ch) * (1.0 + 2.0**-40) + 2.0**-52

    def full(j: int) -> bool:
        lo, hi = e0 - j * step, e0 + j * step
        d_max, c_max = _headroom(cfg, lo)
        if hi != lo:
            c_max = _headroom(cfg, hi)[1]
        return d_max == batt.p_max and c_max == -batt.p_max

    j = min(n_steps - 1, math.floor(margin / step))  # the last free step
    while j >= 0 and not full(j):
        j -= 1
    while j + 1 < n_steps and full(j + 1):
        j += 1
    return j + 1


def _soc_path(batt: BatteryParams, p_discharge, p_charge, dt: float, soc):
    """Fill soc[1:] from soc[0] with the battery's dispatch, along the first
    axis, and return soc: a running sum of soc_change, added in sequence as
    soc_step and _rule_block's step loop add, so the paths compare bitwise."""
    soc[1:] = soc_change(batt, p_charge, p_discharge, dt)
    return np.add.accumulate(soc, axis=0, out=soc)


def _saturated_error(cfg: HesConfig, c, r, out):
    """target - p_hes of the rule at full headroom, into out[0], with out[1]
    and out[2] as scratch: the net output is the command clipped to the
    assets' reach, gl = clip(target, -load.p_max, gen.p_max) and then
    b = clip(target - gl, -batt.p_max, batt.p_max), with no split.

    At full headroom at most one of p_gen and p_load is non-zero, and at
    most one of p_discharge and p_charge, so gl is p_gen - p_load, b is
    p_discharge + p_charge, and gl + b is the rule's p_hes but perhaps for
    the sign of a zero, which |target - p_hes| drops.
    """
    target, gl, b = out
    pb = cfg.batt.p_max
    np.multiply(c, r, out=target)
    np.clip(target, -cfg.load.p_max, cfg.gen.p_max, out=gl)
    np.subtract(target, gl, out=b)
    np.clip(b, -pb, pb, out=b)
    gl += b
    return np.subtract(target, gl, out=target)


def _net_output(p_gen, p_load, p_discharge, p_charge, out=None):
    """p_hes, summed in the rule's order (into ``out`` when given)."""
    p_hes = np.subtract(p_gen, p_load, out=out)
    p_hes += p_discharge
    p_hes += p_charge
    return p_hes


def _rule_block(cfg: HesConfig, c, r, soc, n_free: int, cols) -> tuple:
    """One block of steps of the rule along r's first axis, into ``cols``:
    DispatchTrace's columns but the SoC, in its order, each shaped like
    c * r. The split, its residual held in the p_hes column; the battery at
    full headroom on the first n_free steps (clipped to the block's), its
    SoC one running sum, and step by step after them; the net output.
    ``soc`` has one more step than r; from soc[0] it fills soc[1:]."""
    target, p_gen, p_load, p_discharge, p_charge, resid = cols
    _split_command(cfg, c, r, (target, p_gen, p_load, resid))
    k = min(max(n_free, 0), r.shape[0])
    pb = cfg.batt.p_max
    _battery_share(resid[:k], pb, -pb, (p_discharge[:k], p_charge[:k]))
    _soc_path(cfg.batt, p_discharge[:k], p_charge[:k], cfg.dt, soc[: k + 1])
    for j in range(k, r.shape[0]):
        p_d, p_c = _battery_share(
            resid[j], *_headroom(cfg, soc[j]), out=(p_discharge[j], p_charge[j])
        )
        np.add(soc[j], soc_change(cfg.batt, p_c, p_d, cfg.dt), out=soc[j + 1])
    # the residual is spent; its buffer takes p_hes
    _net_output(p_gen, p_load, p_discharge, p_charge, out=resid)
    return cols


def _rule_columns(
    cfg: HesConfig, c: float, r: np.ndarray, e0: float, n_free: int | None = None
) -> tuple:
    """The rule over step-major commands r, shape (n_steps, n_windows), with
    the first n_free steps (k* from _free_steps when None) at full headroom.

    Returns DispatchTrace's columns in its order, each step-major; soc has
    one more row and is the transpose of a (windows, steps + 1) array.
    """
    if n_free is None:
        n_free = _free_steps(cfg, e0, r.shape[0])
    soc = np.empty((r.shape[1], r.shape[0] + 1)).T
    soc[0] = e0
    cols = _rule_block(cfg, c, r, soc, n_free, [np.empty_like(r) for _ in range(6)])
    return (*cols, soc)


def _check_inputs(cfg: HesConfig, c: float | np.ndarray, dt: float) -> None:
    """Checks shared by the dispatch entry points.

    ``c`` is one capacity or an array of them; each must be finite and > 0.
    """
    ensure_dispatchable(cfg)
    for c_i in np.ravel(c).tolist():
        if not math.isfinite(c_i):
            raise ValueError(f"capacity must be finite, got {c_i}")
        if c_i <= 0.0:
            raise ValueError(f"capacity must be > 0 MW, got {c_i}")
    if dt != cfg.dt:
        raise ValueError(f"signal dt={dt} does not match config dt={cfg.dt}")


def rt_step(
    cfg: HesConfig, c: float, r_k: float, state: SocState
) -> tuple[DispatchStep, SocState]:
    """One interval of the priority rule. Returns the dispatch and next SoC.

    r_k is checked as RegSignal checks a sample; the state may lie SOC_TOL
    outside the envelope, so that every SoC the rule gives is accepted."""
    _check_inputs(cfg, c, cfg.dt)
    if not -1.0 <= r_k <= 1.0:  # also refuses NaN
        raise SignalRangeError(f"r_k must be a finite sample in [-1, 1], got {r_k}")
    batt = cfg.batt
    if not batt.soc_min - SOC_TOL <= state.e <= batt.soc_max + SOC_TOL:
        raise ValueError(
            f"state SoC {state.e} lies outside [{batt.soc_min}, {batt.soc_max}]"
        )
    cols = _rule_columns(cfg, c, np.array([[r_k]], dtype=float), state.e)
    step = DispatchStep(*[col.item() for col in cols[1:6]])
    return step, SocState(e=cols[6].item(1))


def rt_dispatch(cfg: HesConfig, c: float, sig: RegSignal) -> DispatchTrace:
    """Run the rule over a whole window, from cfg.batt.soc_init."""
    _check_inputs(cfg, c, sig.dt)
    cols = _rule_columns(cfg, c, sig.samples[:, None], cfg.batt.soc_init)
    return DispatchTrace(*(col[:, 0] for col in cols))


@dataclass(frozen=True, eq=False)
class BatchDispatch:
    """Many windows dispatched in lockstep: per-window L1 error (summed step
    by step, in step order) and the (windows, steps + 1) SoC trajectories."""

    err_sums: np.ndarray
    soc: np.ndarray  # soc[i, 0] is the initial state, soc[i, k+1] after step k


def rt_dispatch_batch(
    cfg: HesConfig, c: float, samples: np.ndarray, dt: float
) -> BatchDispatch:
    """The rule over an (n_windows, n_steps) sample matrix, from
    cfg.batt.soc_init: the stream of rt_error_sums (_rule_stream) for one
    capacity, writing each window's whole SoC path.

    Each window's dispatch is bitwise the one rt_dispatch gives. Samples are
    checked as RegSignal checks a window.
    """
    _check_inputs(cfg, c, dt)
    samples = np.asarray(samples, dtype=float)
    _check_samples(samples, 2)
    soc = np.empty((samples.shape[0], samples.shape[1] + 1))
    soc[:, 0] = cfg.batt.soc_init
    err_sums = _rule_stream(cfg, np.array([c], dtype=float), samples, soc.T[:, None])
    return BatchDispatch(err_sums=err_sums[0], soc=soc)


def rt_error_sums(
    cfg: HesConfig,
    capacities: np.ndarray,
    samples: np.ndarray,
    dt: float,
) -> np.ndarray:
    """L1 tracking error of the rule per capacity and window.

    Returns a (capacities, windows) array whose row j is bitwise
    ``rt_dispatch_batch(cfg, capacities[j], samples, dt).err_sums``, from
    the stream (_rule_stream) with one rotating SoC block.
    """
    cs = np.asarray(capacities, dtype=float)
    if cs.ndim != 1 or cs.size == 0:
        raise ValueError(f"capacities must be a non-empty 1-D array, got shape {cs.shape}")
    _check_inputs(cfg, cs, dt)
    samples = np.asarray(samples, dtype=float)
    _check_samples(samples, 2)
    return _rule_stream(cfg, cs, samples)


def _rule_stream(
    cfg: HesConfig, cs: np.ndarray, samples: np.ndarray, soc_path=None
) -> np.ndarray:
    """The rule for every capacity in cs over the (n_windows, n_steps)
    samples, from cfg.batt.soc_init, a block of steps at a time. Returns
    the (capacities, windows) L1 errors, each step's joining the running
    sums in step order.

    Each block runs _rule_block, its first steps at full headroom while the
    prefix (_free_steps) lasts. With ``soc_path``, a step-major (steps + 1,
    capacities, windows) array whose row 0 holds cfg.batt.soc_init, the
    blocks fill the rest of it. Without, one rotating block holds the SoC, its row 0 carrying it from
    block to block; and where the prefix covers the window, the blocks need
    neither the split nor the SoC: their errors come from the saturation
    form (_saturated_error). Memory grows with the block, not with the
    number of steps: step-block arrays of at most about _STEP_BLOCK_ELEMENTS
    elements each, but never less than one step of capacities x windows.
    There are three for the saturation form, else six and the SoC block.
    """
    e0 = cfg.batt.soc_init
    c = cs[:, None]
    n_windows, n_steps = samples.shape
    block = max(1, _STEP_BLOCK_ELEMENTS // (cs.size * n_windows))
    n_free = _free_steps(cfg, e0, n_steps)
    saturated = soc_path is None and n_free >= n_steps
    # buffers made once per call: made per block, they slowed a bid-year-sized
    # call (77 capacities x 365 windows, one step per block) 1.8x, in page
    # faults
    buffers = [np.empty((block, cs.size, n_windows)) for _ in range(3 if saturated else 6)]
    soc = soc_path
    if soc is None and not saturated:
        soc = np.full((block + 1, cs.size, n_windows), e0)
    err_sums = np.zeros((cs.size, n_windows))
    commands = np.ascontiguousarray(samples.T)  # each block one slab of memory
    for start in range(0, n_steps, block):
        r = commands[start : start + block, None, :]
        n = r.shape[0]
        cols = [a[:n] for a in buffers]
        if saturated:
            err = _saturated_error(cfg, c, r, cols)
        else:
            at = 0 if soc_path is None else start  # the block's first SoC row
            target, *_, p_hes = _rule_block(cfg, c, r, soc[at : at + n + 1], n_free - start, cols)
            if soc_path is None:
                soc[0] = soc[n]
            err = np.subtract(target, p_hes, out=target)
        for err_k in np.abs(err, out=err):
            err_sums += err_k  # step by step, in step order
    return err_sums


def validate_trace(
    cfg: HesConfig,
    trace: DispatchTrace,
    *,
    power_tol: float = POWER_TOL,
    soc_tol: float = SOC_TOL,
) -> list[tuple[int, FeasibilityVerdict]]:
    """check_step_feasible over every step, as one column-wise check;
    returns the offending (k, verdict) in step order."""
    return _envelope_violations(
        cfg, trace.p_gen, trace.p_load, trace.p_discharge, trace.p_charge, trace.soc[1:],
        power_tol=power_tol, soc_tol=soc_tol,
    )


_TRACE_HEADER = ["k", "r", "target", "p_gen", "p_load", "p_charge", "p_discharge", "p_hes", "soc"]


def save_trace_csv(path: str | Path, trace: DispatchTrace, r: np.ndarray, c: float) -> Path:
    """Write a dispatch trace; ``soc`` column is the post-step state.

    The initial SoC and the capacity ride along as comment metadata so the
    file round-trips through load_trace_csv.
    """
    r = np.asarray(r, dtype=float)
    if r.size != trace.n_steps:
        raise ValueError(f"r has {r.size} rows, trace has {trace.n_steps} steps")
    cols = (
        r, trace.target, trace.p_gen, trace.p_load,
        trace.p_charge, trace.p_discharge, trace.p_hes, trace.soc[1:],
    )
    return write_csv(
        path,
        _TRACE_HEADER,
        zip(range(trace.n_steps), *(col.tolist() for col in cols)),
        comments=(f"c={format_float(c)}", f"soc_init={format_float(trace.soc[0])}"),
    )


def load_trace_csv(path: str | Path) -> tuple[DispatchTrace, np.ndarray, float]:
    """Inverse of save_trace_csv. Returns (trace, r, c)."""
    header, rows, comments = read_csv(path)
    if header != _TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header {','.join(header)!r}")
    if not rows:
        raise ValueError(f"{path}: no trace data found")
    meta: dict[str, float] = {}
    for body in comments:
        key, eq, val = body.partition("=")
        if eq:
            try:
                meta[key.strip()] = float(val)
            except ValueError:
                raise ValueError(f"{path}: bad metadata comment {body!r}") from None
    if "c" not in meta or "soc_init" not in meta:
        raise ValueError(f"{path}: missing c/soc_init metadata comments")
    values = []
    for i, row in enumerate(rows, 1):
        try:
            if len(row) != len(_TRACE_HEADER):
                raise ValueError(f"expected {len(_TRACE_HEADER)} columns, got {len(row)}")
            values.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from None
    cols = np.array(values)
    r = cols[:, 0]
    soc = np.concatenate([[meta["soc_init"]], cols[:, 7]])
    trace = DispatchTrace(
        target=cols[:, 1],
        p_gen=cols[:, 2],
        p_load=cols[:, 3],
        p_charge=cols[:, 4],
        p_discharge=cols[:, 5],
        p_hes=cols[:, 6],
        soc=soc,
    )
    return trace, r, meta["c"]
