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

save_signal writes through reports.write_csv, like every CSV artifact. The
loader reads each file once, as bytes. A file in the plain layout above
(ASCII, that exact header on line 1, no '#'; CRLF and CR become LF, as in
text mode) has its body parsed in pieces of about _PIECE_BYTES: small files
joined into one piece, a large one cut at line ends into several. Each piece
gets one check that every line has exactly one comma, one split, one map of
float over the second fields and one range check, and its values go into one
growing buffer. Any other file, and every file of a piece that fails, goes
whole to the line-by-line reader, which skips comments and blank lines and
names the file and line of the first bad one; a file that is not UTF-8 is
refused with its path and byte offset. The first faulty file in name order
decides the error. load_archive lists a directory with one os.scandir, and
cuts the samples into the (windows, window_len) matrix a SignalArchive is;
config.resolve_archive fills the rows of one instead.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .reports import write_csv

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
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN reaches both, inf one
        raise SignalRangeError("signal contains non-finite samples")
    if lo < -1.0 or hi > 1.0:
        raise SignalRangeError(
            f"samples outside [-1, 1]: min={lo}, max={hi}"
        )


def _check_dt(dt: float) -> None:
    if not math.isfinite(dt):
        raise SignalError(f"dt must be finite, got {dt}")
    if dt <= 0.0:
        raise SignalError(f"dt must be > 0 hours, got {dt}")


@dataclass(frozen=True, eq=False)
class RegSignal:
    """One window of regulation commands. ``samples`` is read-only float64."""

    samples: np.ndarray
    dt: float  # hours per sample

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float, copy=True)
        _check_samples(arr, 1)
        _check_dt(self.dt)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _row(cls, samples: np.ndarray, dt: float) -> RegSignal:
        """A window over checked, read-only samples and a checked dt; no copy."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "samples", samples)
        object.__setattr__(sig, "dt", dt)
        return sig

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class SignalArchive:
    """Equal-length windows sharing one sample interval: ``samples``, one
    read-only C-contiguous float64 (n_windows, window_len) matrix, kept as it
    is if it is one, else copied once; ``windows``, RegSignal views of its rows."""

    samples: np.ndarray
    dt: float  # hours per sample
    source: str = ""
    windows: tuple[RegSignal, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = self.samples
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.flags.c_contiguous
            and not arr.flags.writeable
        ):
            arr = np.array(arr, dtype=float, order="C")
            arr.setflags(write=False)
        if arr.ndim == 2 and arr.shape[0] == 0:
            raise EmptyArchiveError("archive has no windows")
        _check_samples(arr, 2)
        _check_dt(self.dt)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "windows", tuple(RegSignal._row(row, self.dt) for row in arr))

    @property
    def n_windows(self) -> int:
        return int(self.samples.shape[0])

    @property
    def window_len(self) -> int:
        return int(self.samples.shape[1])


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


def _read_lines(path: Path, text: str) -> list[float]:
    """Line-by-line reader: skips comments and blank lines, names a bad line."""
    samples: list[float] = []
    saw_header = False
    for lineno, raw in enumerate(text.split("\n"), 1):
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


# The plain layout as bytes: its first line, and every byte but the two a
# plain body is cut by, for bytes.translate to delete
_HEADER = b"timestamp,r\n"
_NOT_COMMA_OR_NEWLINE = bytes(b for b in range(256) if b not in b",\n")
# Bytes of plain body per piece. On a bid-year-like directory (365 files of
# 180 samples, 4.9 KiB each; shared 2-CPU Xeon, Python 3.11, best of 15),
# one load took 42 ms through the line reader alone, and 36.2, 34.6, 33.7
# and 30.1 ms with 8, 16, 32 and 64 KiB pieces; float() is ~17 ms of that at
# any size. A piece's field strings are alive at once, 4.3 bytes per byte of
# piece, and the pages they touch stay resident: 64 KiB pieces raised
# bid-year's peak RSS by 0.15-0.25 MiB, 16 KiB pieces kept it within the
# line reader's run-to-run spread.
_PIECE_BYTES = 1 << 14


def _read_text(path: Path, data: bytes) -> list[float]:
    """The line reader over data as text mode reads it: UTF-8, CRLF and a
    lone CR turned into LF. It splits on LF alone: str.splitlines also breaks
    on form feed, U+2028 and others, which a line keeps."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SignalParseError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return _read_lines(path, text.replace("\r\n", "\n").replace("\r", "\n"))


def _plain(data: bytes) -> bytes | None:
    """data as LF-terminated lines (CRLF and a lone CR turned into LF, as in
    text mode, and a last LF added) if it is in the plain layout: ASCII,
    that exact header first and no '#'. Else None."""
    if not data.isascii():
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    return data if data.startswith(_HEADER) and b"#" not in data else None


def _piece_values(piece: bytes) -> np.ndarray | None:
    """The second fields of LF-terminated lines as floats in [-1, 1], or None
    unless every line has exactly one comma and every value is one."""
    if piece.translate(None, _NOT_COMMA_OR_NEWLINE) != b",\n" * piece.count(b"\n"):
        return None
    try:
        fields = piece.replace(b"\n", b",").split(b",")[1::2]
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return None
    return values if np.all(np.abs(values) <= 1.0) else None  # NaN fails too


def _pieces(group: list[tuple[Path, bytes]]):
    """The bodies of a group of plain files as pieces of whole lines: one
    file cut at the last LF of about every _PIECE_BYTES, or several small
    files joined into one piece."""
    if len(group) == 1:
        data = group[0][1]
        start = len(_HEADER)
        while start < len(data):
            stop = start + _PIECE_BYTES  # a line longer than a piece runs to its own LF
            stop = data.rfind(b"\n", start, stop) + 1 or data.find(b"\n", stop) + 1
            yield data[start:stop]
            start = stop
    elif group:
        yield b"".join(memoryview(data)[len(_HEADER):] for _, data in group)


def _parse_group(group: list[tuple[Path, bytes]], samples: array) -> None:
    """Append the samples of a group of plain files, piece by piece. If a
    piece fails, every file of the group goes whole through the line reader."""
    start = len(samples)
    for piece in _pieces(group):
        values = _piece_values(piece)
        if values is None:
            del samples[start:]
            for path, data in group:
                samples.fromlist(_read_text(path, data))
            return
        samples.frombytes(values.view(np.uint8))


def _read_samples(files: list[Path]) -> np.ndarray:
    """Every file's r column, in order, in one growing buffer: no array per
    piece outlives it. Plain files wait in a group of at most _PIECE_BYTES of
    body, or alone if larger. The group is parsed before a later file is
    parsed or fails to read, so the first faulty file decides the error."""
    samples = array("d")
    group: list[tuple[Path, bytes]] = []
    size = 0
    for path in files:
        try:
            data = path.read_bytes()
        except OSError:
            _parse_group(group, samples)
            raise
        plain = _plain(data)
        if plain is None or size + len(plain) > _PIECE_BYTES:
            _parse_group(group, samples)
            group, size = [], 0
        if plain is None:
            samples.fromlist(_read_text(path, data))
        else:
            group.append((path, plain))
            size += len(plain)
    _parse_group(group, samples)
    return np.frombuffer(samples)


def _csv_files(directory: Path) -> list[Path]:
    """sorted(directory.glob("*.csv")), from one os.scandir: every entry
    whose name ends in ".csv", dotfiles and sub-directories too, by name."""
    with os.scandir(directory) as entries:
        names = sorted(entry.name for entry in entries if entry.name.endswith(".csv"))
    return [directory / name for name in names]


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
    at sample ``offset``. A trailing partial window is dropped. The windows
    are read-only rows of one matrix.
    """
    if window_len < 2:
        raise SignalError(f"window_len must be >= 2, got {window_len}")
    if offset < 0:
        raise SignalError(f"offset must be >= 0, got {offset}")
    p = Path(path)
    if p.is_dir():
        files = _csv_files(p)
        if not files:
            raise EmptyArchiveError(f"no *.csv files in directory {p}")
    else:
        if not p.exists():
            raise FileNotFoundError(f"signal source not found: {p}")
        files = [p]
    samples = _read_samples(files)
    usable = samples.size - offset
    n_win = usable // window_len if usable > 0 else 0
    if n_win <= 0:
        raise EmptyArchiveError(
            f"no complete window of length {window_len} in {p} "
            f"({samples.size} samples, offset {offset})"
        )
    data = samples[offset : offset + n_win * window_len].reshape(n_win, window_len)
    data.setflags(write=False)
    return SignalArchive(data, dt, str(p))


def save_signal(path: str | Path, samples: np.ndarray | RegSignal) -> Path:
    """Write samples in the archive CSV format (round-trips exactly)."""
    arr = samples.samples if isinstance(samples, RegSignal) else np.asarray(samples, dtype=float)
    return write_csv(path, ["timestamp", "r"], enumerate(arr.tolist()))


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
