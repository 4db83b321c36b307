"""Tests of the benchmark itself. Slow: each traced run executes a workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["parent", 0, 100, None, {}],
        ["a", 10, 30, 0, {}],
        ["a.inner", 15, 25, 1, {}],  # counted against a, not against parent
        ["b", 40, 60, 0, {}],
    ]
    assert tracing.self_ns(spans) == [100 - 20 - 20, 20 - 10, 10, 20]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_two_traced_runs_of_one_seed_give_identical_counts(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    root = run.checkout_root()
    counts = []
    for _ in range(2):
        result = run.run_workload(name, 7, 0, True, root)
        assert result["failed"] == 0, result["verdicts"]
        counts.append({k: result["layers"][k] for k in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
