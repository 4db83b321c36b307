"""CSV artifacts: the exact bytes of trace and signal files, and what they refuse."""

import numpy as np
import pytest

from hes_regkit import DispatchTrace, load_trace_csv, save_signal, save_trace_csv

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
