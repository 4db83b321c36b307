"""Asset models for a hybrid energy system (HES).

The system aggregates three assets behind one point of interconnection:
a controllable generator, a controllable (curtailable) load, and a battery.
Sign convention: injection into the grid is positive, so the combined output
is p_gen - p_load + p_discharge + p_charge with p_charge <= 0.

Battery state of charge (SoC) is dimensionless in [0, 1]: stored energy
divided by ``energy_capacity`` (MWh). One step advances it by
``-(eta_c * p_charge + p_discharge / eta_d) * dt / energy_capacity``,
so round-trip losses show up as SoC that charging cannot fully recover.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "POWER_TOL",
    "SOC_TOL",
    "GeneratorParams",
    "LoadParams",
    "BatteryParams",
    "HesConfig",
    "DispatchStep",
    "soc_change",
    "soc_step",
    "check_step_feasible",
    "ensure_dispatchable",
]


def _require_finite(owner: str, obj, *names: str) -> None:
    """Refuse a NaN or infinite field of ``obj``, naming it."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{owner}{name} must be finite, got {value}")


# Absolute tolerances used by feasibility checks. Power-side slack absorbs
# float noise accumulated over ~1e3 steps; SoC is checked near exactly.
POWER_TOL = 1e-9  # MW
SOC_TOL = 1e-12  # dimensionless SoC


@dataclass(frozen=True)
class GeneratorParams:
    """Controllable generator limits in MW.

    ``p_min`` may be nonzero for bookkeeping, but dispatch routines require a
    fully flexible unit (p_min == 0) and refuse anything else.
    """

    p_max: float
    p_min: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("generator ", self, "p_max")
        if not 0.0 <= self.p_min <= self.p_max:
            raise ValueError(
                "generator limits must satisfy 0 <= p_min <= p_max, "
                f"got p_min={self.p_min}, p_max={self.p_max}"
            )
        object.__setattr__(self, "p_max", abs(self.p_max))  # a -0.0 limit is 0.0


@dataclass(frozen=True)
class LoadParams:
    """Controllable load limit in MW (consumption magnitude, >= 0)."""

    p_max: float

    def __post_init__(self) -> None:
        _require_finite("load ", self, "p_max")
        if self.p_max < 0.0:
            raise ValueError(f"load p_max must be >= 0, got {self.p_max}")
        object.__setattr__(self, "p_max", abs(self.p_max))  # a -0.0 limit is 0.0


@dataclass(frozen=True)
class BatteryParams:
    """Battery ratings, efficiencies and SoC envelope.

    ``p_max`` bounds both charge and discharge magnitude (MW).
    ``energy_capacity`` is the SoC normalization base (MWh).
    Efficiencies are one-way; both must lie in (0, 1].
    """

    p_max: float
    energy_capacity: float
    eta_c: float = 1.0
    eta_d: float = 1.0
    soc_min: float = 0.0
    soc_max: float = 1.0
    soc_init: float = 0.5

    def __post_init__(self) -> None:
        _require_finite("battery ", self, "p_max", "energy_capacity")
        if self.p_max <= 0.0:
            raise ValueError(f"battery p_max must be > 0, got {self.p_max}")
        if self.energy_capacity <= 0.0:
            raise ValueError(
                f"battery energy_capacity must be > 0, got {self.energy_capacity}"
            )
        for name in ("eta_c", "eta_d"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"battery {name} must be in (0, 1], got {eta}")
        # a subnormal eta_d lets the rule's discharge headroom underflow,
        # and dividing by eta_d then magnifies that error past the SoC bounds
        if self.eta_d < sys.float_info.min:
            raise ValueError(
                "battery eta_d must be at least the smallest normal float "
                f"{sys.float_info.min}, got {self.eta_d}"
            )
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError(
                "battery SoC envelope must satisfy 0 <= soc_min < soc_max <= 1, "
                f"got [{self.soc_min}, {self.soc_max}]"
            )
        if not self.soc_min <= self.soc_init <= self.soc_max:
            raise ValueError(
                f"battery soc_init={self.soc_init} outside envelope "
                f"[{self.soc_min}, {self.soc_max}]"
            )


@dataclass(frozen=True)
class HesConfig:
    """One hybrid system: asset parameters plus the control interval (hours)."""

    gen: GeneratorParams
    load: LoadParams
    batt: BatteryParams
    dt: float

    def __post_init__(self) -> None:
        _require_finite("", self, "dt")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0 hours, got {self.dt}")
        # the rule's SoC headroom divides by these, multiplied in this order
        dt, pb, eta_c = self.dt, self.batt.p_max, self.batt.eta_c
        for name, product in (
            (f"dt * battery p_max = {dt} * {pb}", dt * pb),
            (f"battery eta_c * dt * p_max = {eta_c} * {dt} * {pb}", eta_c * dt * pb),
        ):
            if product == 0.0:
                raise ValueError(f"{name} underflows to 0")


@dataclass(frozen=True)
class DispatchStep:
    """Asset powers for one interval (MW). p_charge <= 0 <= p_discharge."""

    p_gen: float
    p_load: float
    p_discharge: float
    p_charge: float

    @property
    def p_hes(self) -> float:
        """Combined grid injection, summed in the rule's order."""
        return self.p_gen - self.p_load + self.p_discharge + self.p_charge


def soc_change(batt: BatteryParams, p_charge, p_discharge, dt: float):
    """SoC change over one interval of ``dt`` hours, for floats or arrays
    of battery powers (elementwise)."""
    return -(batt.eta_c * p_charge + p_discharge / batt.eta_d) * dt / batt.energy_capacity


def soc_step(
    batt: BatteryParams, e: float, p_charge: float, p_discharge: float, dt: float
) -> float:
    """Advance SoC e one interval of ``dt`` hours. No clamping or checks here;
    feasibility is the caller's problem (see check_step_feasible)."""
    return e + soc_change(batt, p_charge, p_discharge, dt)


def _bound(label: str, name: str, x: np.ndarray, lo: float, hi: float, tol: float):
    """(mask, message) of one bound. The mask negates
    ``lo - tol <= x <= hi + tol``, so NaN fails it."""
    mask = ~((lo - tol <= x) & (x <= hi + tol))
    return mask, lambda k: f"{label}: {name}={x[k].item()!r} outside [{lo}, {hi}]"


def _envelope_violations(
    cfg: HesConfig, p_gen, p_load, p_discharge, p_charge, soc_next,
    *, power_tol: float = POWER_TOL, soc_tol: float = SOC_TOL,
) -> list[tuple[int, tuple[str, ...]]]:
    """The envelope over float64 columns of steps, one whole-column test per
    constraint: (k, violations) for each step k that breaks it, in step
    order.

    Each step's violations name every constraint it breaks rather than
    stopping at the first, so fuzz harnesses can report what actually broke:

    - generator within [p_min, p_max]
    - load within [0, p_max]
    - discharge within [0, batt.p_max], charge within [-batt.p_max, 0]
    - complementarity: p_discharge * (-p_charge) <= power_tol
    - resulting SoC within [soc_min, soc_max] (tolerance soc_tol)
    """
    gen, load, batt = cfg.gen, cfg.load, cfg.batt
    # as in Python floats: inf * -0.0 is NaN (no overlap), overflow is inf
    with np.errstate(invalid="ignore", over="ignore"):
        overlap = p_discharge * -p_charge
    checks = (
        _bound("generator-bounds", "p_gen", p_gen, gen.p_min, gen.p_max, power_tol),
        _bound("load-bounds", "p_load", p_load, 0, load.p_max, power_tol),
        _bound("battery-discharge-bounds", "p_discharge", p_discharge, 0, batt.p_max, power_tol),
        _bound("battery-charge-bounds", "p_charge", p_charge, -batt.p_max, 0, power_tol),
        (
            overlap > power_tol,
            lambda k: "complementarity: simultaneous charge and discharge "
            f"(p_discharge={p_discharge[k].item()!r}, p_charge={p_charge[k].item()!r})",
        ),
        _bound("soc-bounds", "e", soc_next, batt.soc_min, batt.soc_max, soc_tol),
    )
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    return [
        (k, tuple(message(k) for mask, message in checks if mask[k]))
        for k in np.flatnonzero(failing).tolist()
    ]


def check_step_feasible(
    cfg: HesConfig,
    step: DispatchStep,
    e_next: float,
    *,
    power_tol: float = POWER_TOL,
    soc_tol: float = SOC_TOL,
) -> tuple[str, ...]:
    """Check one dispatch step and the SoC it leads to against the asset
    limits: the one-step view of _envelope_violations. Returns a message
    per broken constraint; an empty tuple means the step is feasible."""
    cols = np.array(
        [[step.p_gen], [step.p_load], [step.p_discharge], [step.p_charge], [e_next]], dtype=float
    )
    bad = _envelope_violations(cfg, *cols, power_tol=power_tol, soc_tol=soc_tol)
    return bad[0][1] if bad else ()


def ensure_dispatchable(cfg: HesConfig) -> None:
    """Dispatch routines assume a generator that can idle at zero output."""
    if cfg.gen.p_min != 0.0:
        raise ValueError(
            f"dispatch requires a generator with p_min = 0, got {cfg.gen.p_min}"
        )
