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

One kernel runs the rule over many windows at once, stepping only the SoC
and the headroom; rt_step, rt_dispatch and rt_dispatch_batch are views of
it, and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    DispatchStep,
    FeasibilityVerdict,
    HesConfig,
    SocState,
    check_step_feasible,
    ensure_dispatchable,
)
from .signals import RegSignal, _check_samples

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

    def step(self, k: int) -> DispatchStep:
        return DispatchStep(
            p_gen=float(self.p_gen[k]),
            p_load=float(self.p_load[k]),
            p_discharge=float(self.p_discharge[k]),
            p_charge=float(self.p_charge[k]),
            p_hes=float(self.p_hes[k]),
        )

    def abs_error(self) -> float:
        """L1 tracking error, sum |target - p_hes|."""
        return float(np.sum(np.abs(self.target - self.p_hes)))


def _split_command(cfg: HesConfig, c: float, r: np.ndarray):
    """The SoC-free half of the rule: target, p_gen, p_load and the residual
    the battery is asked for (>= 0 where r > 0, <= 0 elsewhere)."""
    target = c * r
    pos = r > 0.0
    gmax, lmax = cfg.gen.p_max, cfg.load.p_max
    # where, not np.minimum, which may pick either of two tied zeros: at
    # r = +0.0, p_load = min(-target, lmax) is -0.0, and trace files show it
    p_gen = np.where(pos, np.where(gmax < target, gmax, target), 0.0)
    p_load = -target
    p_load = np.where(pos, 0.0, np.where(lmax < p_load, lmax, p_load))
    resid = target - p_gen
    resid += p_load
    return target, p_gen, p_load, resid


def _battery_share(resid, d_max, c_max):
    """Battery (p_discharge, p_charge) for a residual, within [c_max, d_max].

    ``+ 0.0`` turns a -0.0 (a tie between zeros, e.g. c_max = -0.0 at the
    SoC ceiling) into 0.0 and leaves every other value as it is.
    """
    p_discharge = np.maximum(0.0, np.minimum(resid, d_max)) + 0.0
    p_charge = np.minimum(0.0, np.maximum(resid, c_max)) + 0.0
    return p_discharge, p_charge


def _rule_columns(cfg: HesConfig, c: float, r: np.ndarray, e0: float) -> tuple:
    """The rule over step-major commands r, shape (n_steps, n_windows).

    Returns DispatchTrace's columns in its order, each step-major; soc has
    one more row and is the transpose of a (windows, steps + 1) array.
    """
    batt = cfg.batt
    pb, cap, dt = batt.p_max, batt.energy_capacity, cfg.dt
    target, p_gen, p_load, resid = _split_command(cfg, c, r)
    p_discharge = np.empty_like(resid)
    p_charge = np.empty_like(resid)
    soc = np.empty((r.shape[1], r.shape[0] + 1)).T
    soc[0] = e0
    for k in range(r.shape[0]):
        e = soc[k]
        delta_d = np.minimum(batt.eta_d * (e - batt.soc_min) * cap / (dt * pb), 1.0)
        delta_c = np.minimum((batt.soc_max - e) * cap / (batt.eta_c * dt * pb), 1.0)
        p_d, p_c = _battery_share(resid[k], delta_d * pb, -delta_c * pb)
        p_discharge[k], p_charge[k] = p_d, p_c
        soc[k + 1] = e - (batt.eta_c * p_c + p_d / batt.eta_d) * dt / cap
    # the residual is spent; its buffer takes p_hes, summed in the rule's order
    p_hes = np.subtract(p_gen, p_load, out=resid)
    p_hes += p_discharge
    p_hes += p_charge
    return target, p_gen, p_load, p_discharge, p_charge, p_hes, soc


def _check_inputs(
    cfg: HesConfig, c: float, dt: float, soc_init: float | None = None
) -> float:
    """Checks shared by the dispatch entry points; returns the initial SoC."""
    ensure_dispatchable(cfg)
    if c <= 0.0:
        raise ValueError(f"capacity must be > 0 MW, got {c}")
    if dt != cfg.dt:
        raise ValueError(f"signal dt={dt} does not match config dt={cfg.dt}")
    e0 = cfg.batt.soc_init if soc_init is None else float(soc_init)
    if not cfg.batt.soc_min <= e0 <= cfg.batt.soc_max:
        raise ValueError(
            f"soc_init={e0} outside envelope [{cfg.batt.soc_min}, {cfg.batt.soc_max}]"
        )
    return e0


def rt_step(
    cfg: HesConfig, c: float, r_k: float, state: SocState
) -> tuple[DispatchStep, SocState]:
    """One interval of the priority rule. Returns the dispatch and next SoC."""
    cols = _rule_columns(cfg, c, np.array([[r_k]], dtype=float), state.e)
    step = DispatchStep(*(float(col[0, 0]) for col in cols[1:6]))
    return step, SocState(e=float(cols[6][1, 0]))


def rt_dispatch(
    cfg: HesConfig, c: float, sig: RegSignal, *, soc_init: float | None = None
) -> DispatchTrace:
    """Run the rule over a whole window."""
    e0 = _check_inputs(cfg, c, sig.dt, soc_init)
    cols = _rule_columns(cfg, c, sig.samples[:, None], e0)
    return DispatchTrace(*(col[:, 0] for col in cols))


@dataclass(frozen=True, eq=False)
class BatchDispatch:
    """Many windows dispatched in lockstep, reduced per window and overall.

    Holds per-window L1 error (summed step by step, in step order), the
    (windows, steps + 1) SoC trajectories and their extremes, plus global
    extremes of each asset power and of the charge*discharge overlap, which
    is what safety fuzzing reads.
    """

    err_sums: np.ndarray
    soc_final: np.ndarray
    soc_lowest: np.ndarray
    soc_highest: np.ndarray
    gen_max: float
    load_max: float
    discharge_max: float
    charge_min: float
    asset_sign_min: float  # most negative of any gen/load/discharge, and -charge
    overlap_max: float  # max over steps of p_discharge * (-p_charge)
    soc: np.ndarray  # soc[i, 0] is the initial state, soc[i, k+1] after step k


def rt_dispatch_batch(
    cfg: HesConfig,
    c: float,
    samples: np.ndarray,
    dt: float,
    *,
    soc_init: float | None = None,
) -> BatchDispatch:
    """The rule over an (n_windows, n_steps) sample matrix.

    Each window's dispatch is bitwise the one rt_dispatch gives. Samples are
    checked as RegSignal checks a window.
    """
    e0 = _check_inputs(cfg, c, dt, soc_init)
    samples = np.asarray(samples, dtype=float)
    _check_samples(samples, 2)
    target, p_gen, p_load, p_dis, p_ch, p_hes, soc = _rule_columns(cfg, c, samples.T, e0)
    # the kernel's matrices are this call's own: target's buffer is reused
    err = np.subtract(target, p_hes, out=target)
    np.abs(err, out=err)
    np.add.accumulate(err, axis=0, out=err)  # sequential, like a running +=
    err_sums = err[-1].copy()
    overlap = np.multiply(p_dis, p_ch, out=err)
    soc = soc.T
    return BatchDispatch(
        err_sums=err_sums,
        soc_final=soc[:, -1],
        soc_lowest=soc.min(axis=1),
        soc_highest=soc.max(axis=1),
        gen_max=float(p_gen.max()),
        load_max=float(p_load.max()),
        discharge_max=float(p_dis.max()),
        charge_min=float(p_ch.min()),
        asset_sign_min=min(
            float(p_gen.min()), float(p_load.min()), float(p_dis.min()), -float(p_ch.max())
        ),
        overlap_max=-float(overlap.min()),
        soc=soc,
    )


def validate_trace(
    cfg: HesConfig,
    trace: DispatchTrace,
    *,
    power_tol: float | None = None,
    soc_tol: float | None = None,
) -> list[tuple[int, FeasibilityVerdict]]:
    """Run check_step_feasible over every step; returns offending (k, verdict)."""
    kwargs = {}
    if power_tol is not None:
        kwargs["power_tol"] = power_tol
    if soc_tol is not None:
        kwargs["soc_tol"] = soc_tol
    bad = []
    for k in range(trace.n_steps):
        verdict = check_step_feasible(
            cfg, trace.step(k), SocState(e=float(trace.soc[k + 1])), **kwargs
        )
        if not verdict.feasible:
            bad.append((k, verdict))
    return bad


_TRACE_HEADER = ["k", "r", "target", "p_gen", "p_load", "p_charge", "p_discharge", "p_hes", "soc"]


def save_trace_csv(path: str | Path, trace: DispatchTrace, r: np.ndarray, c: float) -> Path:
    """Write a dispatch trace; ``soc`` column is the post-step state.

    The initial SoC and the capacity ride along as comment metadata so the
    file round-trips through load_trace_csv.
    """
    r = np.asarray(r, dtype=float)
    if r.size != trace.n_steps:
        raise ValueError(f"r has {r.size} rows, trace has {trace.n_steps} steps")
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# c=%.17g\n" % c)
        fh.write("# soc_init=%.17g\n" % trace.soc[0])
        fh.write(",".join(_TRACE_HEADER) + "\n")
        for k in range(trace.n_steps):
            row = (
                str(k),
                "%.17g" % r[k],
                "%.17g" % trace.target[k],
                "%.17g" % trace.p_gen[k],
                "%.17g" % trace.p_load[k],
                "%.17g" % trace.p_charge[k],
                "%.17g" % trace.p_discharge[k],
                "%.17g" % trace.p_hes[k],
                "%.17g" % trace.soc[k + 1],
            )
            fh.write(",".join(row) + "\n")
    return p


def load_trace_csv(path: str | Path) -> tuple[DispatchTrace, np.ndarray, float]:
    """Inverse of save_trace_csv. Returns (trace, r, c)."""
    p = Path(path)
    meta: dict[str, float] = {}
    rows: list[list[str]] = []
    saw_header = False
    with open(p, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = float(val)
                continue
            if not saw_header:
                if [h.strip() for h in line.split(",")] != _TRACE_HEADER:
                    raise ValueError(f"{p}:{lineno}: unexpected trace header {line!r}")
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != len(_TRACE_HEADER):
                raise ValueError(f"{p}:{lineno}: expected {len(_TRACE_HEADER)} columns")
            rows.append(parts)
    if not saw_header or not rows:
        raise ValueError(f"{p}: no trace data found")
    if "c" not in meta or "soc_init" not in meta:
        raise ValueError(f"{p}: missing c/soc_init metadata comments")
    cols = np.array([[float(v) for v in row[1:]] for row in rows])
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
