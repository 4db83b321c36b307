"""The bundled profiles' CLI artifacts, pinned by sha256.

Each case runs one subcommand on one of profiles/*.ini and compares the
sha256 of every file it writes, and its exit code, with
tests/profile_digests.json. The offline LP's artifacts are left out: their
bytes depend on the installed scipy. A change that moves these bytes on
purpose records the file again, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_profile_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from hes_regkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("profile_digests.json")
PROFILES = ("symmetric", "asym-gen", "asym-load")
CASES = {
    "characterize": ["characterize"],
    "synth": ["synth"],
    "dispatch-rt": ["dispatch", "--mode", "rt", "--capacity", "12"],
    "bid": ["bid"],
    "soc-drift": ["soc-drift"],
    "soc-drift-load": ["soc-drift", "--vary", "load", "--values", "0,3"],
    "soc-drift-c12-load": ["soc-drift", "--capacity", "12", "--vary", "load", "--values", "0,3"],
    "asym-sweep-gen": ["asym-sweep", "--vary", "gen", "--values", "0,8,50"],
}


def run_case(profile: str, case: str, out: Path) -> dict:
    """Run one case into ``out``; its exit code and each file's sha256."""
    argv = CASES[case]
    code = main([argv[0], "--config", str(ROOT / "profiles" / f"{profile}.ini"),
                 "--out", str(out), *argv[1:]])
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    return {"exit": code, "files": files}


@pytest.mark.parametrize("profile", PROFILES)
def test_profile_artifacts_match_recorded_digests(profile, tmp_path, capsys):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[profile]
    assert sorted(recorded) == sorted(CASES)
    for case in CASES:
        assert run_case(profile, case, tmp_path / case) == recorded[case], case
    capsys.readouterr()  # a sweep value with no bracket prints one error line


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            profile: {case: run_case(profile, case, Path(tmp) / profile / case) for case in CASES}
            for profile in PROFILES
        }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
