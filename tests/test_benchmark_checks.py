"""The benchmark harness's output checks (perfbench/checks.py), run in
process on small CLI outputs. The checks import the package's public API
(load_trace_csv, validate_trace, load_config ...), so a change to what they
use fails here first, not as a benchmark run refused for incorrect outputs.
The harness is loaded from its file, as it is, not edited."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hes_regkit.cli import main
from test_cli import BASE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# one op per check, each a small case of the benchmark's own invocation
OPS = {
    "bid": (),
    "soc-drift": ("--capacity", "12"),
    "asym-sweep": ("--vary", "gen", "--values", "0,8"),
    "dispatch": ("--capacity", "12", "--mode", "both"),
}


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling workloads.py by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_command_has_a_check(checks):
    assert set(checks.CHECKS) == set(OPS)


@pytest.mark.parametrize("command", list(OPS))
def test_check_passes_on_the_command_output(checks, tmp_path, monkeypatch, command):
    # the checks read the config relative to the work directory, as the CLI does
    (tmp_path / "exp.ini").write_text(BASE)
    monkeypatch.chdir(tmp_path)
    argv = (command, "--config", "exp.ini", *OPS[command], "--out", "out")
    assert main(list(argv)) == 0
    assert checks.CHECKS[command](tmp_path, argv, tmp_path / "out") == []
