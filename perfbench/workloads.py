"""The three benchmark workloads: their inputs, configs and CLI invocations.

Inputs come from the benchmark's own numpy Generator, seeded from the
workload seed, never from the package's ``synth_signal``: a change to the
package cannot change what it is measured on. The one exception is
``asym-sweep``, which runs the bundled ``profiles/asym-gen.ini`` with shorter
windows and so draws its synthetic windows from the package, keyed by
``--seed``.

Every path written into a config is relative to the work directory, which is
the child's working directory. The package hashes the archive path into each
report's ``inputs_digest``, so an absolute path would make artifacts depend on
where the checkout lives.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes are chosen so that one pass takes about a second: a run then holds
# enough passes for its fastest one to be a steady figure (see README.md).
YEAR_DAYS = 365
YEAR_WINDOW_LEN = 180  # six minutes at 2 s, one window per day
ASYM_WINDOW_LEN = 60  # two minutes at 2 s; asym-gen.ini's windows are 900
DRIFT_STEPS = 2000
DRIFT_BIAS = -0.5  # strong enough to drive the SoC to its floor in 2 000 steps
DRIFT_NOISE = 0.8
NEUTRAL_STEPS = 600
CAPACITY_MW = "12"  # fixed bid for soc-drift and dispatch
ASYM_VALUES = ("0", "8", "50")


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``out`` is its own output directory."""

    command: str
    argv: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    inputs: dict[str, str]  # input name -> sha256


def _energy_neutral(rng: np.random.Generator, shape) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, shape)
    x -= x.mean(axis=-1, keepdims=True)
    peak = np.max(np.abs(x), axis=-1, keepdims=True)
    return x / np.maximum(peak, 1.0)


def _write_signal_csv(path: Path, samples: np.ndarray, first: int = 0) -> None:
    lines = ["timestamp,r"]
    lines.extend("%d,%.17g" % (first + k, v) for k, v in enumerate(samples.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.glob("*.csv")):
        h.update(f.name.encode() + b"\0" + sha256_file(f).encode() + b"\n")
    return h.hexdigest()


def _write_config(root: Path, path: Path, archive: str, window_len: int) -> None:
    """symmetric.ini's [hes], [market] and [sweep], over a generated archive."""
    src = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(root / "profiles" / "symmetric.ini", encoding="utf-8") as fh:
        src.read_file(fh)
    out = configparser.ConfigParser()
    for section in ("hes", "market", "sweep"):
        out[section] = dict(src.items(section))
    out["signal"] = {"archive": archive, "window_len": str(window_len)}
    out["run"] = {"out_dir": "out", "seed": "0"}
    with open(path, "w", encoding="utf-8") as fh:
        out.write(fh)


def _bid_year(root: Path, work_dir: Path, seed: int) -> tuple[tuple[Op, ...], dict]:
    year = work_dir / "year"
    year.mkdir()
    rng = np.random.default_rng([seed, 1])
    days = _energy_neutral(rng, (YEAR_DAYS, YEAR_WINDOW_LEN))
    for d in range(YEAR_DAYS):
        _write_signal_csv(year / ("day-%03d.csv" % d), days[d], d * YEAR_WINDOW_LEN)
    _write_config(root, work_dir / "bid-year.ini", "year", YEAR_WINDOW_LEN)
    cfg = ("--config", "bid-year.ini")
    ops = (
        Op("bid", ("bid",) + cfg + ("--out", "out/0-bid"), "out/0-bid"),
        Op(
            "soc-drift",
            ("soc-drift",) + cfg + ("--capacity", CAPACITY_MW, "--out", "out/1-soc-drift"),
            "out/1-soc-drift",
        ),
    )
    return ops, {"year": _dir_digest(year)}


def _asym_sweep(root: Path, work_dir: Path, seed: int) -> tuple[tuple[Op, ...], dict]:
    """asym-gen.ini with shorter synthetic windows, every other key unchanged."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(root / "profiles" / "asym-gen.ini", encoding="utf-8") as fh:
        cfg.read_file(fh)
    cfg["signal"]["synth_n"] = cfg["signal"]["window_len"] = str(ASYM_WINDOW_LEN)
    with open(work_dir / "asym-gen.ini", "w", encoding="utf-8") as fh:
        cfg.write(fh)
    # One call per value, not one call for all three: the reference loop then
    # runs between them, close to the work it gauges the host's speed for.
    ops = tuple(
        Op(
            "asym-sweep",
            ("asym-sweep", "--config", "asym-gen.ini", "--vary", "gen", "--values", value,
             "--seed", str(seed), "--out", f"out/{i}-asym-sweep-{value}"),
            f"out/{i}-asym-sweep-{value}",
        )
        for i, value in enumerate(ASYM_VALUES)
    )
    return ops, {"asym-gen.ini": sha256_file(work_dir / "asym-gen.ini")}


def _offline_dispatch(root: Path, work_dir: Path, seed: int) -> tuple[tuple[Op, ...], dict]:
    rng = np.random.default_rng([seed, 3])
    drift = np.clip(DRIFT_BIAS + DRIFT_NOISE * rng.uniform(-1.0, 1.0, DRIFT_STEPS), -1.0, 1.0)
    neutral = _energy_neutral(rng, NEUTRAL_STEPS)
    _write_signal_csv(work_dir / "drift.csv", drift)
    _write_signal_csv(work_dir / "neutral.csv", neutral)
    _write_config(root, work_dir / "drift.ini", "drift.csv", DRIFT_STEPS)
    _write_config(root, work_dir / "neutral.ini", "neutral.csv", NEUTRAL_STEPS)
    ops = tuple(
        Op(
            "dispatch",
            ("dispatch", "--config", f"{label}.ini", "--capacity", CAPACITY_MW,
             "--mode", "both", "--out", f"out/{i}-dispatch-{label}"),
            f"out/{i}-dispatch-{label}",
        )
        for i, label in enumerate(("drift", "neutral"))
    )
    inputs = {name: sha256_file(work_dir / name) for name in ("drift.csv", "neutral.csv")}
    return ops, inputs


# Why each workload exists is written down in README.md.
_BUILDERS = {
    "bid-year": _bid_year,
    "asym-sweep": _asym_sweep,
    "offline-dispatch": _offline_dispatch,
}

NAMES = tuple(_BUILDERS)


def prepare(name: str, root: Path, work_dir: Path, seed: int) -> Workload:
    """Write the inputs of workload ``name`` into ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops, inputs = _BUILDERS[name](root, work_dir, seed)
    return Workload(ops=ops, inputs=inputs)
