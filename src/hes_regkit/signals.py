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
loader reads every file, small or long, in _PIECE_BYTES reads, and each
read's whole lines are one piece: the partial line at its end is carried
into the next read, so no file is held whole. A plain piece (ASCII, no
'#', after the header; CRLF and a lone CR become LF, as in text mode) joins
a group of plain pieces, across files, of at most _PIECE_BYTES. A group gets
one check that its commas and LFs alternate, one parse of the second
fields, one range check, and its values go into one growing buffer; a group
that fails the check is checked again with its empty lines dropped, if it
has any. Any other piece (a comment, non-ASCII text, the lines up to a
header in another case or spacing), and each piece of a group that fails,
goes alone through the line-by-line reader, as it was read. It carries the
line number and whether the header was seen from one piece to the next,
skips comments and blank lines, and names the file and line of the first
bad one; a piece that is not UTF-8 is refused with the path and the byte's
offset in the file. The group is parsed before any later piece, so the
first faulty line in stream order decides the error. load_archive lists a
directory with one os.scandir, and cuts the samples into the (windows,
window_len) matrix a SignalArchive is; config.resolve_archive fills the
rows of one instead.

The parse gives float(field) bit for bit. A field of the form [-]D.F, with
1 to 22 fraction digits F, is read in numpy (Lemire, "Number parsing at a
gigabyte per second", 2021): each field right-aligned in a 24-byte row, D
moved onto the '.', every byte left of it set to '0', and the row read as
three 8-byte lanes of 8 digits each by SWAR multiply-and-shift steps, which
also flag any byte that is not a digit. That gives the integer M = D.F *
10^k with k = len(F), taken only if no digit weighs more than 10^18, so
M < 10^19 < 2^64. Then q = M / 10^k in long double, and y = float64(q).
This is exact (Clinger, "How to read floating point numbers accurately",
1990): M and 10^k (k <= 27) are exact in a 64-bit significand, so q is M /
10^k rounded once; every midpoint between two doubles fits in 64 bits and
rounding is monotone, so rounding q again to a double gives the correctly
rounded M / 10^k unless q is itself such a midpoint. Those rows, and every
field of another form (exponents, '+', spaces, '_', integers, longer
fractions, inf, nan), go through float(); a piece in which fewer than half
the fields have the kernel's form goes through float() whole, which is
faster for it (np.savetxt's '%.18e', say). The kernel runs only where long
double is x87 extended or IEEE binary128 and a probe at import shows its
division keeps 64 bits; elsewhere (binary64 on macOS arm64 and Windows)
every field goes through float().
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _check_samples(arr: np.ndarray, ndim: int) -> tuple[float, float]:
    """Check one window (ndim 1) or a (windows, steps) matrix (ndim 2), and
    return its least and greatest sample."""
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
    return lo, hi


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


def _read_lines(path: Path, text: str, samples: array, lineno: int, saw_header: bool) -> bool:
    """Line-by-line reader over text, whose first line is line lineno + 1 of
    path: skips comments and blank lines, appends each value to samples and
    names a bad line. Returns whether the header has been seen. It splits
    on LF alone: str.splitlines also breaks on form feed, U+2028 and others,
    which a line keeps."""
    for lineno, raw in enumerate(text.split("\n"), lineno + 1):
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
    return saw_header


# The plain layout's first line, as bytes
_HEADER = b"timestamp,r\n"
_COMMA_NEWLINE = int.from_bytes(b",\n", "little")
# Bytes per read, and of plain body per piece. One load of a bid-year-like
# directory (365 files of 180 samples, 4.9 KiB each; shared 2-CPU Xeon,
# Python 3.11, numpy 2.4, best of 5 x 25) took 24.8, 19.2 and 16.4 ms with
# 16, 32 and 64 KiB pieces, against 31.8 ms for float() on 16 KiB pieces:
# the kernel makes about 35 numpy calls a piece, whatever its size.
_PIECE_BYTES = 1 << 16

# The exact decimal kernel (see the module docstring). A field's row is 24
# bytes, three 8-byte lanes. _KEEP[k] masks a row's lanes to its last k + 1
# bytes, and _POW10[k] is 10^k, exact in long double up to 10^27.
_ROW = 24
_ZERO_ROW = np.full(_ROW, ord("0"), np.uint8)
_KEEP = np.array(
    [[0] * (_ROW - 1 - k) + [0xFF] * (k + 1) for k in range(_ROW - 1)], np.uint8
).view("<u8")
_POW10 = np.multiply.accumulate(np.array([1] + [10] * (_ROW - 2), np.longdouble))
# Only where long double is x87 extended (63-bit fraction) or IEEE binary128
# (112), and its division keeps all 64 bits of (2^64 - 1) / 3, does the
# kernel run; elsewhere (binary64 on macOS arm64 and Windows, IBM
# double-double) every field goes through float().
_EXACT_DIVISION = bool(
    np.finfo(np.longdouble).nmant in (63, 112)
    and int(np.array([2**64 - 1], np.uint64).astype(np.longdouble)[0] / 3) == (2**64 - 1) // 3
)


def _decimals(
    piece: bytes, buf: np.ndarray, commas: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """float(field) for each field of piece, bit for bit; buf is piece after
    _ROW bytes of '0', and a field runs from buf[comma + 1] to buf[end]. A
    field of the form [-]D.F, with 1 to 22 fraction digits F, is parsed in
    numpy; float() takes the rest and every row the kernel cannot prove
    exact, and raises what it raises. None if fewer than half the fields
    have that form. buf is changed."""
    neg = buf[commas + 1] == ord("-")
    dot = np.minimum(commas + 2 + neg, ends)
    k = ends - dot - 1  # fraction digits
    fast = (buf[dot] == ord(".")) & (k >= 1) & (k <= _ROW - 2)
    k = np.where(fast, k, 0)
    buf[dot] = buf[dot - 1]  # D onto the '.': the row reads as the integer M
    rows = sliding_window_view(buf, _ROW)[ends - _ROW]  # each field right-aligned
    v = rows.view("<u8")
    v ^= 0x3030303030303030  # '0'-'9' to 0-9
    v &= np.take(_KEEP, k, axis=0)
    w = v + 0x0606060606060606
    w |= v
    fast &= ((w[:, 0] | w[:, 1] | w[:, 2]) & 0xF0F0F0F0F0F0F0F0) == 0  # else a byte is not 0-9
    if 2 * np.count_nonzero(fast) < fast.size:
        return None  # most fields are in another form, which float() reads faster whole
    for n, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF)):
        np.right_shift(v, 8 * n, out=w)
        v *= 10**n
        v += w
        v &= mask  # each 2, then 4, then 8 digits as one integer
    hi, mid, lo = v.T
    fast &= hi < 1000  # no digit weighs over 10^18, so M < 10^19 < 2^64
    q = (hi * 10**16 + mid * 10**8 + lo).astype(np.longdouble) / np.take(_POW10, k)
    y = q.astype(np.float64)
    # q - y is exact; twice it is a whole gap between doubles only where q is
    # their midpoint, the one case in which y may be the wrong neighbour
    gap = (q - y).astype(np.float64)
    gap += gap
    fast &= ((y + gap) - y != gap) | (gap == 0)
    np.negative(y, out=y, where=neg)
    slow = np.flatnonzero(~fast)
    starts, stops = (commas[slow] + 1 - _ROW).tolist(), (ends[slow] - _ROW).tolist()
    y[slow] = [float(piece[a:b]) for a, b in zip(starts, stops)]
    return y


def _piece_values(piece: bytes) -> np.ndarray | None:
    """The second fields of LF-terminated lines as floats in [-1, 1], or None
    unless every line has exactly one comma and every value is one."""
    buf = np.concatenate((_ZERO_ROW, np.frombuffer(piece, np.uint8)))
    cuts = buf == ord(",")
    cuts |= buf == ord("\n")
    cuts = np.flatnonzero(cuts)
    if cuts.size % 2 or not np.all(buf[cuts].view("<u2") == _COMMA_NEWLINE):
        return None  # not one comma, then one LF, a line
    commas, ends = cuts[0::2], cuts[1::2]
    try:
        values = _decimals(piece, buf, commas, ends) if _EXACT_DIVISION else None
        if values is None:
            fields = piece.replace(b"\n", b",").split(b",")[1::2]
            values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return None
    return values if np.all(np.abs(values) <= 1.0) else None  # NaN fails too


def _parse_group(group: list[tuple[Path, int, bytes, int]], samples: array) -> None:
    """Append the values of a group of plain pieces, each (path, lines of
    the file before it, piece, the group's bytes up to its end), joined
    into one piece for the kernel, and
    read again with its empty lines dropped if it holds any. If that fails,
    each piece as it was read goes through the line reader, so the lines
    keep their numbers, and the group empties."""
    if group:
        joined = b"".join(piece for _, _, piece, _ in group)
        values = _piece_values(joined)
        # empty lines are looked for only in a group the kernel refused:
        # `in` takes about 90 us on a 64 KiB piece of short lines
        if values is None and (joined.startswith(b"\n") or b"\n\n" in joined):
            while b"\n\n" in joined:
                joined = joined.replace(b"\n\n", b"\n")
            values = _piece_values(joined.lstrip(b"\n"))
        if values is None:
            for path, lineno, piece, _ in group:
                _read_lines(path, piece.decode("ascii"), samples, lineno, True)
        else:
            samples.frombytes(values.view(np.uint8))
        group.clear()


def _pieces(f: BinaryIO):
    """f's bytes in pieces of whole lines, one per _PIECE_BYTES read: the
    partial line at the end of a read, and a CR there that may be half of a
    CRLF, are carried into the next. Yields (offset of the piece in the
    file, piece, whether it is the last); line ends are left as they are."""
    carry, offset = b"", 0
    while True:
        chunk = f.read(_PIECE_BYTES)
        data = carry + chunk
        if len(chunk) < _PIECE_BYTES:  # a buffered read is short only at the end
            if data:
                yield offset, data, True
            return
        end = len(data) - data.endswith(b"\r")
        cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
        if cut:
            yield offset, data[:cut], False
        carry, offset = data[cut:], offset + cut


def _read_samples(files: list[Path]) -> np.ndarray:
    """Every file's r column, in order, in one growing buffer: no array per
    piece outlives it. A plain piece (ASCII, no '#', after the header; CRLF
    and a lone CR turned into LF as in text mode) waits in a group of at
    most _PIECE_BYTES for the kernel; any other piece goes through the line
    reader alone, after the group. The group is parsed before any error
    leaves, so the first faulty line in stream order decides the error."""
    samples = array("d")
    group: list[tuple[Path, int, bytes, int]] = []
    try:
        for path in files:
            lineno, saw_header = 0, False
            with path.open("rb") as f:
                for offset, piece, last in _pieces(f):
                    if piece.isascii():
                        if b"\r" in piece:
                            piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                        if not piece.endswith(b"\n"):
                            piece += b"\n"
                        if not saw_header and piece.startswith(_HEADER):
                            piece, lineno, saw_header = piece[len(_HEADER) :], 1, True
                        if saw_header and b"#" not in piece:
                            if group and group[-1][3] + len(piece) > _PIECE_BYTES:
                                _parse_group(group, samples)
                            size = group[-1][3] + len(piece) if group else len(piece)
                            group.append((path, lineno, piece, size))
                            if not last:  # the next piece's line numbers; numpy
                                # counts LFs six times faster than bytes.count
                                lfs = np.frombuffer(piece, np.uint8) == ord("\n")
                                lineno += np.count_nonzero(lfs)
                            continue
                    _parse_group(group, samples)
                    try:
                        text = piece.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise SignalParseError(
                            f"{path}: not UTF-8 at byte {offset + exc.start}: {exc.reason}"
                        ) from exc
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                    saw_header = _read_lines(path, text, samples, lineno, saw_header)
                    lineno += text.count("\n")
            if not saw_header:
                raise SignalParseError(f"{path}: no header line found")
    finally:
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
