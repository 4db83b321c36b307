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
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(pad + "  " + json.dumps(key, ensure_ascii=False) + ": ")
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
    p.write_text(dumps_json(obj), encoding="utf-8")
    return p


def _format_cell(v: Any) -> str:
    # floats first: they fill trace and signal files, so a finite one costs
    # this call alone; bool before int, its base
    if isinstance(v, float):
        if math.isfinite(v):
            return "%.17g" % v
        return format_float(v)  # refuses it
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"CSV cell may not contain separators: {v!r}")
        return v
    # numpy scalars land here
    if hasattr(v, "item"):
        return _format_cell(v.item())
    raise TypeError(f"cannot serialize CSV cell {v!r}")


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    comments: Sequence[str] = (),
) -> Path:
    """Write '#' comment lines, the header and the rows.

    Every cell is formatted before the file is opened, so a refused value
    (non-finite float, separator in a string) leaves no partial file.
    """
    lines = [f"# {line}\n" for line in comments]
    lines.append(",".join(header) + "\n")
    lines.extend(",".join(map(_format_cell, row)) + "\n" for row in rows)
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
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
