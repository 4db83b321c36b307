"""Shared fixtures-in-plain-functions for the test suite.

The reference system used throughout: symmetric 3 MW generator and load,
5 MW / 5 MWh battery at 95% one-way efficiency, SoC kept in [0.1, 0.9]
starting from 0.5, dispatched on 2-second intervals.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from hes_regkit import (
    BatteryParams,
    GeneratorParams,
    HesConfig,
    LoadParams,
    MarketParams,
    RegSignal,
    synth_signal,
)
from hes_regkit import controller
from hes_regkit.model import _envelope_violations

DT_2S = 2.0 / 3600.0


def subprocess_env() -> dict[str, str]:
    """Environment for a child Python that imports the package from src/,
    as pytest's pythonpath setting does for the tests themselves."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def reference_system(dt: float = DT_2S) -> HesConfig:
    return HesConfig(
        gen=GeneratorParams(p_max=3.0),
        load=LoadParams(p_max=3.0),
        batt=BatteryParams(
            p_max=5.0,
            energy_capacity=5.0,
            eta_c=0.95,
            eta_d=0.95,
            soc_min=0.1,
            soc_max=0.9,
            soc_init=0.5,
        ),
        dt=dt,
    )


def reference_market(**overrides) -> MarketParams:
    kwargs = dict(lambda_c=40.0, lambda_m=10.0, x_p_min=0.75, gamma=0.9, c_max=20.0)
    kwargs.update(overrides)
    return MarketParams(**kwargs)


def random_system(rng: np.random.Generator, dt: float) -> HesConfig:
    """Randomized but always-valid system for property/fuzz tests."""
    pb = rng.uniform(1.0, 6.0)
    cap = pb * rng.uniform(0.5, 2.0)
    lo = rng.uniform(0.05, 0.2)
    hi = rng.uniform(0.8, 0.95)
    span = hi - lo
    return HesConfig(
        gen=GeneratorParams(p_max=rng.uniform(0.0, 6.0)),
        load=LoadParams(p_max=rng.uniform(0.0, 6.0)),
        batt=BatteryParams(
            p_max=pb,
            energy_capacity=cap,
            eta_c=rng.uniform(0.85, 1.0),
            eta_d=rng.uniform(0.85, 1.0),
            soc_min=lo,
            soc_max=hi,
            soc_init=rng.uniform(lo + 0.2 * span, hi - 0.2 * span),
        ),
        dt=dt,
    )


def random_signal(rng: np.random.Generator, n: int, dt: float) -> RegSignal:
    """Mix of synthetic kinds with randomized shape parameters."""
    kind = rng.choice(["energy-neutral-random", "drifting", "square-wave"])
    seed = int(rng.integers(2**31))
    if kind == "drifting":
        return synth_signal(
            kind, n, dt, seed, bias=rng.uniform(-0.3, 0.3), noise=rng.uniform(0.2, 0.8)
        )
    if kind == "square-wave":
        return synth_signal(
            kind,
            n,
            dt,
            seed,
            amplitude=rng.uniform(0.3, 1.0),
            period=2 * int(rng.integers(1, 6)),
        )
    return synth_signal(kind, n, dt, seed)


def random_capacity(rng: np.random.Generator, cfg: HesConfig, *, lo=0.2, hi=1.2) -> float:
    reach = max(cfg.gen.p_max, cfg.load.p_max) + cfg.batt.p_max
    return float(rng.uniform(lo, hi) * reach)


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def batch_envelope(cfg: HesConfig, c: float, samples: np.ndarray, *, power_tol, soc_tol):
    """The envelope check over every step of the rule's columns
    (controller._rule_columns, the whole window as one block) on (windows,
    steps) samples. Returns the (k, verdict) violations, k over the
    flattened step-major columns, and the step-major SoC, shape
    (steps + 1, windows), which rt_dispatch_batch's must equal."""
    cols = controller._rule_columns(cfg, c, samples.T, cfg.batt.soc_init)
    _, p_gen, p_load, p_discharge, p_charge, _, soc = cols
    bad = _envelope_violations(
        cfg, *(col.ravel() for col in (p_gen, p_load, p_discharge, p_charge, soc[1:])),
        power_tol=power_tol, soc_tol=soc_tol,
    )
    return bad, soc
