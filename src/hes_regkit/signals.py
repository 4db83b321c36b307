"""Regulation-signal ingestion, synthesis and statistics.

A regulation signal is a normalized command r[k] in [-1, 1] sampled on a
fixed interval. Archives are collections of equal-length windows (typically
one market-clearing hour each) carved out of longer recordings.

CSV format, shared by loaders and writers:

    timestamp,r
    0,-0.113
    1,0.75

Lines starting with '#' and blank lines are ignored. The timestamp column is
a sample counter (or any monotone tag); only the r column is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SignalError",
    "SignalParseError",
    "SignalRangeError",
    "EmptyArchiveError",
    "RegSignal",
    "SignalArchive",
    "SignalStats",
    "DistributionSummary",
    "ArchiveStats",
    "SYNTH_KINDS",
    "load_archive",
    "save_signal",
    "synth_signal",
    "mileage",
    "energy_stats",
    "archive_stats",
]


class SignalError(ValueError):
    """Base class for signal ingestion problems."""


class SignalParseError(SignalError):
    """Malformed CSV content; message carries file and line number."""


class SignalRangeError(SignalError):
    """Sample outside [-1, 1]."""


class EmptyArchiveError(SignalError):
    """No complete window could be extracted from the source."""


def _check_samples(arr: np.ndarray, ndim: int) -> None:
    """Check one window (ndim 1) or a (windows, steps) matrix (ndim 2)."""
    if arr.ndim != ndim:
        raise SignalError(f"signal must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0 or arr.shape[-1] < 2:
        raise SignalError(f"signal needs at least 2 samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SignalRangeError("signal contains non-finite samples")
    lo, hi = float(arr.min()), float(arr.max())
    if lo < -1.0 or hi > 1.0:
        raise SignalRangeError(
            f"samples outside [-1, 1]: min={lo}, max={hi}"
        )


@dataclass(frozen=True, eq=False)
class RegSignal:
    """One window of regulation commands. ``samples`` is read-only float64."""

    samples: np.ndarray
    dt: float  # hours per sample

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float, copy=True)
        _check_samples(arr, 1)
        if self.dt <= 0.0:
            raise SignalError(f"dt must be > 0 hours, got {self.dt}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class SignalArchive:
    """Equal-length windows sharing one sample interval."""

    windows: tuple[RegSignal, ...]
    source: str = ""

    def __post_init__(self) -> None:
        if not self.windows:
            raise EmptyArchiveError("archive has no windows")
        n0, dt0 = self.windows[0].n, self.windows[0].dt
        for i, w in enumerate(self.windows):
            if w.n != n0 or w.dt != dt0:
                raise SignalError(
                    f"window {i} has (n={w.n}, dt={w.dt}), expected ({n0}, {dt0})"
                )

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def window_len(self) -> int:
        return self.windows[0].n

    @property
    def dt(self) -> float:
        return self.windows[0].dt

    def matrix(self) -> np.ndarray:
        """All windows stacked as an (n_windows, window_len) array."""
        return np.stack([w.samples for w in self.windows])


@dataclass(frozen=True)
class SignalStats:
    """Per-window scalars.

    w       net energy content, sum(r) * dt (MWh per MW of capacity)
    w_inf   worst running energy excursion, max_j |sum_{k<=j} r[k] * dt|
    mileage total commanded movement, sum |r[k+1] - r[k]|
    """

    w: float
    w_inf: float
    mileage: float


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    std: float
    min: float
    max: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class ArchiveStats:
    per_window: tuple[SignalStats, ...]
    w: DistributionSummary
    w_inf: DistributionSummary
    mileage: DistributionSummary


def mileage(sig: RegSignal) -> float:
    """Total signal movement: sum of |r[k+1] - r[k]| over the window."""
    return float(np.sum(np.abs(np.diff(sig.samples))))


def energy_stats(sig: RegSignal) -> SignalStats:
    """Net energy, worst prefix excursion, and mileage for one window."""
    prefix = np.cumsum(sig.samples) * sig.dt
    w = float(prefix[-1])
    w_inf = float(np.max(np.abs(prefix)))
    # the full sum is itself a prefix, so w_inf >= |w| holds by construction
    return SignalStats(w=w, w_inf=w_inf, mileage=mileage(sig))


def _summarize(values: np.ndarray, bins: int) -> DistributionSummary:
    counts, edges = np.histogram(values, bins=bins)
    return DistributionSummary(
        mean=float(values.mean()),
        std=float(values.std()),
        min=float(values.min()),
        max=float(values.max()),
        bin_edges=tuple(float(x) for x in edges),
        counts=tuple(int(c) for c in counts),
    )


def archive_stats(archive: SignalArchive, *, bins: int = 50) -> ArchiveStats:
    """Per-window stats plus histogram summaries across the archive."""
    per = tuple(energy_stats(w) for w in archive.windows)
    return ArchiveStats(
        per_window=per,
        w=_summarize(np.array([s.w for s in per]), bins),
        w_inf=_summarize(np.array([s.w_inf for s in per]), bins),
        mileage=_summarize(np.array([s.mileage for s in per]), bins),
    )


def _parse_signal_csv(path: Path) -> list[float]:
    samples: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                cols = [c.strip().lower() for c in line.split(",")]
                if cols != ["timestamp", "r"]:
                    raise SignalParseError(
                        f"{path}:{lineno}: expected header 'timestamp,r', got {line!r}"
                    )
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise SignalParseError(
                    f"{path}:{lineno}: expected 2 columns, got {len(parts)}: {line!r}"
                )
            try:
                value = float(parts[1])
            except ValueError:
                raise SignalParseError(
                    f"{path}:{lineno}: bad sample value {parts[1]!r}"
                ) from None
            if not math.isfinite(value) or value < -1.0 or value > 1.0:
                raise SignalRangeError(
                    f"{path}:{lineno}: sample {value!r} outside [-1, 1]"
                )
            samples.append(value)
    if not saw_header:
        raise SignalParseError(f"{path}: no header line found")
    return samples


def load_archive(
    path: str | Path,
    window_len: int,
    dt: float,
    *,
    offset: int = 0,
) -> SignalArchive:
    """Load an archive from a CSV file or a directory of CSV files.

    Directories are concatenated in lexicographic filename order, then the
    stream is cut into consecutive windows of ``window_len`` samples starting
    at sample ``offset``. A trailing partial window is dropped.
    """
    if window_len < 2:
        raise SignalError(f"window_len must be >= 2, got {window_len}")
    if offset < 0:
        raise SignalError(f"offset must be >= 0, got {offset}")
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.csv"))
        if not files:
            raise EmptyArchiveError(f"no *.csv files in directory {p}")
    else:
        if not p.exists():
            raise FileNotFoundError(f"signal source not found: {p}")
        files = [p]
    samples: list[float] = []
    for f in files:
        samples.extend(_parse_signal_csv(f))
    usable = len(samples) - offset
    n_win = usable // window_len if usable > 0 else 0
    if n_win <= 0:
        raise EmptyArchiveError(
            f"no complete window of length {window_len} in {p} "
            f"({len(samples)} samples, offset {offset})"
        )
    data = np.array(samples[offset : offset + n_win * window_len])
    windows = tuple(
        RegSignal(samples=data[i * window_len : (i + 1) * window_len], dt=dt)
        for i in range(n_win)
    )
    return SignalArchive(windows=windows, source=str(p))


def save_signal(path: str | Path, samples: np.ndarray | RegSignal) -> Path:
    """Write samples in the archive CSV format (round-trips exactly)."""
    arr = samples.samples if isinstance(samples, RegSignal) else np.asarray(samples)
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,r\n")
        for k, v in enumerate(arr):
            fh.write("%d,%.17g\n" % (k, v))
    return p


SYNTH_KINDS = ("energy-neutral-random", "drifting", "square-wave")


def synth_signal(
    kind: str,
    n: int,
    dt: float,
    seed: int,
    *,
    amplitude: float = 1.0,
    period: int = 2,
    bias: float = 0.0,
    noise: float = 0.5,
) -> RegSignal:
    """Generate one synthetic window.

    kinds:
      energy-neutral-random  mean-removed uniform noise, rescaled into
                             [-1, 1]; net energy is ~0 by construction
      drifting               clip(bias + noise * uniform(-1, 1), -1, 1)
      square-wave            +amplitude for the first half of each period,
                             -amplitude for the second (period even, >= 2)
    """
    if n < 2:
        raise SignalError(f"synthetic signal needs n >= 2, got {n}")
    if kind == "energy-neutral-random":
        if not 0.0 < amplitude <= 1.0:
            raise SignalError(f"amplitude must be in (0, 1], got {amplitude}")
        rng = np.random.default_rng(seed)
        x = amplitude * rng.uniform(-1.0, 1.0, n)
        x -= x.mean()
        peak = float(np.max(np.abs(x)))
        if peak > 1.0:
            x /= peak
    elif kind == "drifting":
        if not -1.0 <= bias <= 1.0:
            raise SignalError(f"bias must be in [-1, 1], got {bias}")
        if noise < 0.0:
            raise SignalError(f"noise must be >= 0, got {noise}")
        rng = np.random.default_rng(seed)
        x = np.clip(bias + noise * rng.uniform(-1.0, 1.0, n), -1.0, 1.0)
    elif kind == "square-wave":
        if not 0.0 < amplitude <= 1.0:
            raise SignalError(f"amplitude must be in (0, 1], got {amplitude}")
        if period < 2 or period % 2 != 0:
            raise SignalError(f"period must be an even integer >= 2, got {period}")
        half = period // 2
        x = np.where(np.arange(n) % period < half, amplitude, -amplitude)
    else:
        raise SignalError(f"unknown signal kind {kind!r}; choose from {SYNTH_KINDS}")
    return RegSignal(samples=x, dt=dt)
