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
battery's share (_battery_share). While _headroom is full, (p_max,
-p_max), the battery's share is the same whatever the commands. _headroom
is monotone in the SoC, so it is full on a range of states exactly when it
is full at the range's two ends (_full). So the block runs every step at
full headroom in one pass, the SoC one running sum of model.soc_change
(_soc_path), and steps the battery (headroom, battery share, SoC update)
only from the first state at which the headroom is not full. Up to that
state the pass makes the same additions as the loop, so the route changes
no bit. A window whose farthest reachable SoCs from e0 both have full
headroom (_route) is not checked.

rt_dispatch and offline.closed_form_dispatch (every step at full headroom,
unchecked) run the block once over the whole window (_rule_columns), and
rt_step runs it for its one step at its state's headroom. Every
many-window call runs one stream (_rule_stream): all capacities step
together through the windows a block of steps at a time, and each step's
|target - p_hes| joins the running L1 sums in step order. rt_error_sums
keeps only a rotating SoC block, which is all bid scoring needs, and needs
no split: at full headroom the net output is the command clipped to the
assets' reach, first to [-load.p_max, gen.p_max], then its rest to
[-batt.p_max, batt.p_max] (_saturated_error), which gives the same
|target - p_hes| bit for bit. Where the windows are unchecked, a quiet
capacity (_quiet), one whose two extreme targets c * max r and c * min r
the assets follow exactly, has an error of exactly 0 at every step: each
extreme lies within the generator's (load's) limit, or that limit is a
multiple of the extreme's ulp and the rest is within batt.p_max. Its row
of sums is +0.0, and only the other rows are streamed. Checked windows
have no quiet rows, since the SoC can derate the battery there: the
stream tracks each column's SoC range on the way, and re-runs through the
block body only the (capacity, window) columns whose range is not full
(_full).
rt_dispatch_batch is the stream for one capacity, writing each
window's whole SoC path. Every window starts at cfg.batt.soc_init (rt_step
at the state it is given), every entry point gives the same bits, whatever
the route or the block size, and so do the bid curve and every artifact
built from them.

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
    HesConfig,
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


def _full(cfg: HesConfig, lo, hi):
    """Whether the battery has full headroom, (p_max, -p_max), at every SoC
    in [lo, hi] (elementwise for arrays): full discharge at lo and full
    charge at hi. Each operation of _headroom is monotone in e in floating
    point, so full discharge holds at every state from lo up, and full
    charge at every state up to hi, exactly. A speculative state far outside
    the envelope (a tiny battery's) may overflow the headroom's quotients
    to inf, which the minimum with 1 clips, or be NaN, which is never full."""
    pb = cfg.batt.p_max
    with np.errstate(over="ignore"):
        return (_headroom(cfg, lo)[0] == pb) & (_headroom(cfg, hi)[1] == -pb)


def _route(cfg: HesConfig, e0: float, n_steps: int) -> bool:
    """Whether a block checks its states (``checked``): False where no SoC
    an n_steps window can reach from e0 derates the battery.

    A step moves the SoC by at most m, the larger |soc_change| at full
    discharge and at full charge; within the envelope the sum rounds by at
    most 2**-53 a step. So the state each step starts from lies within the
    reach, (n_steps - 1) steps, of e0, and every step runs at full headroom
    if _full holds on [e0 - reach, e0 + reach]. A window checked where it
    need not be keeps its bits.
    """
    pb, dt = cfg.batt.p_max, cfg.dt
    m = max(-soc_change(cfg.batt, 0.0, pb, dt), soc_change(cfg.batt, -pb, 0.0, dt))
    # the margins cover the rounding of the reach and of e0 -+ reach too
    reach = (n_steps - 1) * (m * (1.0 + 2.0**-40) + 2.0**-52)
    return not _full(cfg, e0 - reach, e0 + reach)


def _first_derated(cfg: HesConfig, states) -> int:
    """The first row of ``states`` with a SoC at which the headroom is not
    full (_full on the row's minimum and maximum), or the number of rows."""
    axes = tuple(range(1, states.ndim))
    full = _full(cfg, states.min(axis=axes), states.max(axis=axes))
    rows = np.flatnonzero(~full)
    return int(rows[0]) if rows.size else len(states)


def _soc_path(batt: BatteryParams, p_discharge, p_charge, dt: float, soc):
    """Fill soc[1:] from soc[0] with the battery's dispatch, along the first
    axis, and return soc: a running sum of soc_change, added in sequence as
    soc_step and _rule_block's step loop add, so the paths compare bitwise.

    np.add.accumulate along the first axis runs its inner loop once per
    column, so a block of few steps and many columns adds row by row
    instead, with the same additions: a (2, 16 000) block took 230 us
    accumulated and 7 us by rows (2-CPU Xeon, numpy 2.4).
    """
    # a tiny battery's step or running sum may overflow; its non-finite
    # states fail _full, so the step loop or the re-run rewrites them
    with np.errstate(over="ignore", invalid="ignore"):
        soc[1:] = soc_change(batt, p_charge, p_discharge, dt)
        if 16 * len(soc) > soc[0].size:
            return np.add.accumulate(soc, axis=0, out=soc)
        for j in range(1, len(soc)):
            np.add(soc[j - 1], soc[j], out=soc[j])
    return soc


def _saturated_error(cfg: HesConfig, c, r, out, soc=None):
    """target - p_hes of the rule at full headroom, into out[0], with out[1]
    and out[2] as scratch: the net output is the command clipped to the
    assets' reach, gl = clip(target, -load.p_max, gen.p_max) and then
    b = clip(target - gl, -batt.p_max, batt.p_max), with no split.

    At full headroom at most one of p_gen and p_load is non-zero, and at
    most one of p_discharge and p_charge, so gl is p_gen - p_load, b is
    p_discharge + p_charge, and gl + b is the rule's p_hes but perhaps for
    the sign of a zero, which |target - p_hes| drops. With ``soc``, one
    more step than r, it also fills soc[1:] from soc[0] as the rule does at
    full headroom, from b's two halves, the battery's (p_discharge,
    p_charge), in out[3] and out[4].
    """
    target, gl, b = out[:3]
    pb = cfg.batt.p_max
    np.multiply(c, r, out=target)
    np.clip(target, -cfg.load.p_max, cfg.gen.p_max, out=gl)
    np.subtract(target, gl, out=b)
    np.clip(b, -pb, pb, out=b)
    if soc is not None:
        _soc_path(cfg.batt, *_battery_share(b, pb, -pb, out[3:]), cfg.dt, soc)
    gl += b
    return np.subtract(target, gl, out=target)


def _quiet(cfg: HesConfig, cs, r_lo: float, r_hi: float):
    """Which capacities in cs the assets follow exactly at full headroom,
    |target - p_hes| = 0 at every step, over commands in [r_lo, r_hi]
    (_saturated_error's clips). Rounding is monotone, so no target of
    capacity c lies above t = c * r_hi or below c * r_lo.

    The up side is quiet if t <= gen.p_max, or if gen.p_max is a multiple
    of ulp(t) and t - gen.p_max <= batt.p_max: then, for every target above
    gen.p_max, target - gen.p_max is exact and within the battery's clip,
    and gen.p_max + (target - gen.p_max) is the target. The down side is the
    same test with -c * r_lo and load.p_max. A t that overflows to inf has
    a NaN ulp and is never quiet.
    """
    pb = cfg.batt.p_max

    def side(t, p_max):
        with np.errstate(invalid="ignore"):
            exact = np.fmod(p_max, np.spacing(t)) == 0.0
        return (t <= p_max) | (exact & (t - p_max <= pb))

    with np.errstate(over="ignore"):
        return side(cs * r_hi, cfg.gen.p_max) & side(cs * -r_lo, cfg.load.p_max)


def _net_output(p_gen, p_load, p_discharge, p_charge, out=None):
    """p_hes, summed in the rule's order (into ``out`` when given)."""
    p_hes = np.subtract(p_gen, p_load, out=out)
    p_hes += p_discharge
    p_hes += p_charge
    return p_hes


def _rule_block(cfg: HesConfig, c, r, soc, cols, checked=False, headroom=None) -> tuple:
    """One block of steps of the rule along r's first axis, into ``cols``:
    DispatchTrace's columns but the SoC, in its order, each shaped like
    c * r. The split, its residual held in the p_hes column; the battery at
    ``headroom`` (d_max, c_max), full headroom by default, over the whole
    block, its SoC one running sum; if ``checked``, step by step again from
    the first state at which the headroom is not full (_first_derated);
    the net output. ``soc`` has one more step than r; from soc[0] it fills
    soc[1:]."""
    target, p_gen, p_load, p_discharge, p_charge, resid = cols
    _split_command(cfg, c, r, (target, p_gen, p_load, resid))
    pb = cfg.batt.p_max
    _battery_share(resid, *(headroom or (pb, -pb)), (p_discharge, p_charge))
    _soc_path(cfg.batt, p_discharge, p_charge, cfg.dt, soc)
    n = r.shape[0]
    for j in range(_first_derated(cfg, soc[:n]) if checked else n, n):
        p_d, p_c = _battery_share(
            resid[j], *_headroom(cfg, soc[j]), out=(p_discharge[j], p_charge[j])
        )
        np.add(soc[j], soc_change(cfg.batt, p_c, p_d, cfg.dt), out=soc[j + 1])
    # the residual is spent; its buffer takes p_hes
    _net_output(p_gen, p_load, p_discharge, p_charge, out=resid)
    return cols


def _rule_error(cfg: HesConfig, c, r, soc, cols, checked):
    """target - p_hes of one block of the rule (_rule_block), into cols[0]."""
    target, *_, p_hes = _rule_block(cfg, c, r, soc, cols, checked)
    return np.subtract(target, p_hes, out=target)


def _rule_columns(
    cfg: HesConfig, c: float, r: np.ndarray, e0: float, full_headroom: bool = False
) -> tuple:
    """The rule over step-major commands r, shape (n_steps, n_windows), from
    SoC e0 by its route (_route); with full_headroom, every step at
    (p_max, -p_max), unchecked.

    Returns DispatchTrace's columns in its order, each step-major; soc has
    one more row and is the transpose of a (windows, steps + 1) array.
    """
    checked = not full_headroom and _route(cfg, e0, r.shape[0])
    soc = np.empty((r.shape[1], r.shape[0] + 1)).T
    soc[0] = e0
    cols = _rule_block(cfg, c, r, soc, [np.empty_like(r) for _ in range(6)], checked)
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


def rt_step(cfg: HesConfig, c: float, r_k: float, e: float) -> tuple[DispatchStep, float]:
    """One interval of the priority rule from SoC e. Returns the dispatch
    and the next SoC.

    r_k is checked as RegSignal checks a sample; e may lie SOC_TOL outside
    the envelope, so that every SoC the rule gives is accepted."""
    _check_inputs(cfg, c, cfg.dt)
    if not -1.0 <= r_k <= 1.0:  # also refuses NaN
        raise SignalRangeError(f"r_k must be a finite sample in [-1, 1], got {r_k}")
    batt = cfg.batt
    if not batt.soc_min - SOC_TOL <= e <= batt.soc_max + SOC_TOL:
        raise ValueError(f"state SoC {e} lies outside [{batt.soc_min}, {batt.soc_max}]")
    # one step, at its state's headroom: no state is left to check
    r, soc = np.array([[r_k]], dtype=float), np.array([[e], [0.0]])
    cols = _rule_block(cfg, c, r, soc, [np.empty_like(r) for _ in range(6)],
                       headroom=_headroom(cfg, e))
    return DispatchStep(*[col.item() for col in cols[1:5]]), soc.item(1)


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
    r_range = _check_samples(samples, 2)
    soc = np.empty((samples.shape[0], samples.shape[1] + 1))
    soc[:, 0] = cfg.batt.soc_init
    err_sums = _rule_stream(cfg, np.array([c], dtype=float), samples, r_range, soc.T[:, None])
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
    the stream (_rule_stream) with one rotating SoC block. Where the
    windows take the unchecked route, the rows of capacities the assets
    track exactly (_quiet, from the samples' least and greatest value) are
    +0.0 without being streamed.
    """
    cs = np.asarray(capacities, dtype=float)
    if cs.ndim != 1 or cs.size == 0:
        raise ValueError(f"capacities must be a non-empty 1-D array, got shape {cs.shape}")
    _check_inputs(cfg, cs, dt)
    samples = np.asarray(samples, dtype=float)
    return _rule_stream(cfg, cs, samples, _check_samples(samples, 2))


def _rule_stream(
    cfg: HesConfig, cs: np.ndarray, samples: np.ndarray, r_range: tuple, soc_path=None
) -> np.ndarray:
    """The rule for every capacity in cs over the (n_windows, n_steps)
    samples, whose least and greatest value are ``r_range``, from
    cfg.batt.soc_init. Returns the (capacities, windows) L1 errors, each
    step's joining the running sums in step order.

    With ``soc_path``, a step-major (steps + 1, capacities, windows) array
    whose row 0 holds cfg.batt.soc_init, each block runs _rule_block and
    fills the rows of its steps. Without, no block needs the split: where
    _route leaves the windows unchecked, the errors come from the
    saturation form (_saturated_error) alone, with no SoC, and only for the
    capacities that are not quiet (_quiet); a quiet row's every |error| is
    +0.0, and so is its sum. Where they are
    checked, the saturation form also carries each column's SoC in one
    rotating block, and keeps its minimum and maximum over the states the
    steps start from. A column with full headroom at both ends of its range
    (_full) ran at full headroom at every step, so its sum is the rule's;
    every other (capacity, window) column runs again through _rule_block,
    which checks every block's states.
    Columns are independent, and the block size changes no bit, so the
    merged sums are the rule's, bit for bit.
    """
    e0 = cfg.batt.soc_init
    c = cs[:, None]
    checked = _route(cfg, e0, samples.shape[1])
    if soc_path is not None:
        return _stream(
            c, samples, 6, lambda r, cols, soc: _rule_error(cfg, c, r, soc, cols, checked),
            soc_path=soc_path,
        )
    if not checked:
        err_sums = np.zeros((cs.size, samples.shape[0]))
        loud = np.flatnonzero(~_quiet(cfg, cs, *r_range))
        if loud.size:
            cl = c[loud]
            err_sums[loud] = _stream(
                cl, samples, 3, lambda r, cols, soc: _saturated_error(cfg, cl, r, cols)
            )
        return err_sums
    lo = np.full((cs.size, samples.shape[0]), math.inf)
    hi = np.full_like(lo, -math.inf)

    def speculate(r, cols, soc):
        err = _saturated_error(cfg, c, r, cols, soc)
        states = soc[: r.shape[0]]
        np.minimum(lo, states.min(axis=0), out=lo)
        np.maximum(hi, states.max(axis=0), out=hi)
        return err

    err_sums = _stream(c, samples, 5, speculate, carry=e0)
    caps, windows = np.nonzero(~_full(cfg, lo, hi))
    if caps.size:
        pairs = cs[caps]
        err_sums[caps, windows] = _stream(
            pairs, samples, 6,
            lambda r, cols, soc: _rule_error(cfg, pairs, r, soc, cols, True),
            windows=windows, carry=e0,
        )
    return err_sums


def _stream(c, samples, n_cols, body, *, windows=None, soc_path=None, carry=None):
    """Run ``body(r, cols, soc)`` over the samples a block of steps at a
    time, and add the |error| each block returns to the running sums, step
    by step, in step order. Returns the sums, one per column.

    The columns are c against every window (c of shape (capacities, 1)),
    or c[i] against window ``windows[i]``. r holds the block's commands,
    step-major, in one reused buffer; cols are n_cols step-block arrays
    shaped like c * r. soc is the block's rows of ``soc_path`` (a
    step-major (steps + 1, ...) path, its row 0 set), or, with ``carry``,
    one rotating block whose row 0 starts at carry and takes each block's
    last state; or None. Memory grows with the block, not with the number
    of steps: step-block arrays of at most about _STEP_BLOCK_ELEMENTS
    elements each, but never less than one step of every column.
    """
    n_steps = samples.shape[1]
    step = (1, samples.shape[0]) if windows is None else windows.shape
    shape = (c.shape[0], samples.shape[0]) if windows is None else windows.shape
    block = max(1, _STEP_BLOCK_ELEMENTS // math.prod(shape))
    # buffers made once per call: made per block, they slowed a bid-year-sized
    # call (77 capacities x 365 windows, one step per block) 1.8x, in page
    # faults
    buffers = [np.empty((block, *shape)) for _ in range(n_cols)]
    soc = soc_path if carry is None else np.full((block + 1, *shape), carry)
    err_sums = np.zeros(shape)
    commands = np.empty((min(block, n_steps), *step))
    for start in range(0, n_steps, block):
        n = min(block, n_steps - start)
        r = commands[:n]  # the block's commands, step-major: one slab of memory
        rows = samples[:, start : start + n] if windows is None else samples[windows, start : start + n]
        np.copyto(r.reshape(n, -1), rows.T)
        at = 0 if soc_path is None else start  # the block's first SoC row
        err = body(r, [a[:n] for a in buffers], None if soc is None else soc[at : at + n + 1])
        if carry is not None:
            soc[0] = soc[n]
        for err_k in np.abs(err, out=err):
            err_sums += err_k  # step by step, in step order
    return err_sums


def validate_trace(
    cfg: HesConfig,
    trace: DispatchTrace,
    *,
    power_tol: float = POWER_TOL,
    soc_tol: float = SOC_TOL,
) -> list[tuple[int, tuple[str, ...]]]:
    """check_step_feasible over every step, as one column-wise check.
    Returns (k, violations) for each infeasible step k, in step order, with
    the messages check_step_feasible gives; an empty list means the whole
    trace is feasible."""
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
    for key in ("c", "soc_init"):
        if not math.isfinite(meta[key]):
            raise ValueError(f"{path}: metadata {key} must be finite, got {meta[key]}")
    values = []
    for i, row in enumerate(rows, 1):
        try:
            if len(row) != len(_TRACE_HEADER):
                raise ValueError(f"expected {len(_TRACE_HEADER)} columns, got {len(row)}")
            values.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from None
    cols = np.array(values)
    bad = np.argwhere(~np.isfinite(cols))
    if bad.size:
        i, j = bad[0].tolist()  # the first in file order
        raise ValueError(
            f"{path}: data row {i + 1}: {_TRACE_HEADER[j + 1]} must be finite, got {cols[i, j]}"
        )
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
