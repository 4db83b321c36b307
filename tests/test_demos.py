"""Each demo script must run clean and honor its optional output directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import subprocess_env

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


def test_demo_inventory():
    assert [p.name.split("_")[0] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=180,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    out = tmp_path / "out"
    if out.exists():  # demos 3 and 5 are print-only
        assert any(out.iterdir())
