"""CSV and JSON artifacts: the exact bytes of trace, signal and report files,
and what they refuse."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hes_regkit import DispatchTrace, load_trace_csv, reports, save_signal, save_trace_csv
from hes_regkit.reports import dumps_json, write_csv

# 0.1 + 0.2 and 1/3 need all 17 significant digits to round-trip; -0.0 is
# what the rule's p_load reads at r = +0.0
_TRACE = DispatchTrace(
    target=[0.1 + 0.2, -1.5, 0.0],
    p_gen=[0.1 + 0.2, 0.0, 0.0],
    p_load=[0.0, 1.5, -0.0],
    p_discharge=[0.0, 0.0, 0.0],
    p_charge=[0.0, 0.0, 0.0],
    p_hes=[0.1 + 0.2, -1.5, 0.0],
    soc=[0.5, 1 / 3, 1 / 3, 0.25],
)
_R = [0.1, -0.5, 0.0]

_TRACE_TEXT = """\
# c=3
# soc_init=0.5
k,r,target,p_gen,p_load,p_charge,p_discharge,p_hes,soc
0,0.10000000000000001,0.30000000000000004,0.30000000000000004,0,0,0,0.30000000000000004,0.33333333333333331
1,-0.5,-1.5,0,1.5,0,0,-1.5,0.33333333333333331
2,0,0,0,-0,0,0,0,0.25
"""

_SIGNAL_TEXT = """\
timestamp,r
0,0.10000000000000001
1,-1
2,0.30000000000000004
3,0
"""


def test_trace_and_signal_bytes(tmp_path):
    trace_path = save_trace_csv(tmp_path / "trace.csv", _TRACE, _R, 3.0)
    assert trace_path.read_bytes() == _TRACE_TEXT.encode("utf-8")
    signal_path = save_signal(tmp_path / "signal.csv", [0.1, -1.0, 0.1 + 0.2, 0.0])
    assert signal_path.read_bytes() == _SIGNAL_TEXT.encode("utf-8")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(tmp_path, bad):
    p_hes = np.array(_TRACE.p_hes)
    p_hes[1] = bad
    trace = DispatchTrace(
        _TRACE.target, _TRACE.p_gen, _TRACE.p_load, _TRACE.p_discharge,
        _TRACE.p_charge, p_hes, _TRACE.soc,
    )
    with pytest.raises(ValueError, match="cannot serialize non-finite float"):
        save_trace_csv(tmp_path / "trace.csv", trace, _R, 3.0)
    with pytest.raises(ValueError, match="cannot serialize non-finite float"):
        save_trace_csv(tmp_path / "trace.csv", _TRACE, _R, bad)
    with pytest.raises(ValueError, match="cannot serialize non-finite float"):
        save_signal(tmp_path / "signal.csv", [0.1, bad, 0.2])
    assert not list(tmp_path.iterdir())  # no partial file left behind


@pytest.mark.parametrize(
    "index, line, problem",
    [
        (4, "1,-0.5,-1.5,0,1.5,0,0,-1.5", "data row 2: expected 9 columns, got 8"),
        (4, "1,-0.5,x,0,1.5,0,0,-1.5,0.3", "data row 2: could not convert string to float: 'x'"),
        (0, "# c=abc", "bad metadata comment 'c=abc'"),
        (3, "0,0.5,nan,0,0,0,0,inf,nan", "data row 1: target must be finite, got nan"),
        (1, "# soc_init=nan", "metadata soc_init must be finite, got nan"),
    ],
)
def test_trace_reader_names_file_and_line(tmp_path, index, line, problem):
    lines = _TRACE_TEXT.splitlines()
    lines[index] = line
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"trace.csv: {problem}"):
        load_trace_csv(path)


def per_cell(v) -> str:
    """The writer's format, one cell at a time, as write_csv first had it."""
    if isinstance(v, float):
        assert math.isfinite(v)
        return "%.17g" % v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return per_cell(v.item())


_FLOATS = [0.1 + 0.2, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 2.0**53, 1e-300]
_MIXED_ROWS = [
    # int, float, bool, str, then one column of every kind and numpy scalars
    [i, x, i % 3 == 0, f"w{i}", [7, 0.5, True, "s", -0.0][i % 5], np.float64(x), np.int64(-i)]
    for i, x in enumerate(_FLOATS * 3)
]


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_write_csv_is_the_per_cell_format(tmp_path, monkeypatch, block_rows):
    # at 7 rows a block, the column of every kind is of one kind in some
    # blocks and mixed in others
    monkeypatch.setattr(reports, "_BLOCK_ROWS", block_rows)
    header = ["i", "x", "flag", "name", "any", "np_x", "np_i"]
    path = write_csv(tmp_path / "mixed.csv", header, iter(_MIXED_ROWS), comments=("a=1", "b"))
    expected = "# a=1\n# b\n" + ",".join(header) + "\n" + "".join(
        ",".join(map(per_cell, row)) + "\n" for row in _MIXED_ROWS
    )
    assert path.read_bytes() == expected.encode("utf-8")
    # 1e308 twice overflows a column's sum; the values are finite all the same
    assert ",1e+308," in expected and ",4.9406564584124654e-324," in expected
    assert ",-0," in expected
    assert write_csv(tmp_path / "empty.csv", ["a", "b"], []).read_bytes() == b"a,b\n"


@pytest.mark.parametrize(
    "column, bad, error, match",
    [
        (1, math.nan, ValueError, "non-finite float nan"),
        (1, math.inf, ValueError, "non-finite float inf"),
        (5, np.float64(-math.inf), ValueError, "non-finite float -inf"),
        (4, math.nan, ValueError, "non-finite float nan"),  # a column of mixed kinds
        (3, "a,b", ValueError, "may not contain separators: 'a,b'"),
        (3, "a\nb", ValueError, "may not contain separators"),
        (4, "a,b", ValueError, "may not contain separators"),
        (0, None, TypeError, "cannot serialize CSV cell None"),
        (2, [1], TypeError, "cannot serialize CSV cell"),
    ],
)
def test_write_csv_refusals_leave_no_file(tmp_path, monkeypatch, column, bad, error, match):
    # the bad cell sits in the last block of rows
    monkeypatch.setattr(reports, "_BLOCK_ROWS", 7)
    rows = [list(row) for row in _MIXED_ROWS]
    rows[-2][column] = bad
    with pytest.raises(error, match=match):
        write_csv(tmp_path / "bad.csv", list("abcdefg"), rows)
    rows[-2] = rows[-2][:6]
    with pytest.raises(ValueError, match="CSV row 28 has 6 cells, header has 7"):
        write_csv(tmp_path / "ragged.csv", list("abcdefg"), rows)
    assert not list(tmp_path.iterdir())


# any text, with the characters JSON escapes or keeps as UTF-8 drawn often
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600'), st.characters())
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key=_JSON_TEXT, value=_JSON_TEXT)
@example(key='"\\', value="\x00\n\t\u00e9\U0001f600")
def test_strings_render_as_json_dumps(key, value):
    want = json.dumps(key, ensure_ascii=False) + ": " + json.dumps(value, ensure_ascii=False)
    assert dumps_json({key: value}) == "{\n  " + want + "\n}\n"

