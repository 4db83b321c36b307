"""The bundled profiles' CLI artifacts, pinned by sha256.

Each case runs one subcommand on one of profiles/*.ini and compares the
sha256 of every file it writes, and its exit code, with
tests/profile_digests.json. The offline LP's artifacts are left out: their
bytes depend on the installed scipy. The bundled 1 800- and 900-step
windows take the rule's checked route; the short-window cases (SHORT) run
two profiles with their synthetic windows cut to 180 and 60 steps, which
take the unchecked route, as bid scoring's quiet rows do. A change that
moves these bytes on purpose records the file again, from the root of a
checkout:

    PYTHONPATH=src python3 tests/test_profile_digests.py
"""

from __future__ import annotations

import hashlib
import json
import re
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
# derived profile: (bundled profile, window length, {case: argv})
SHORT = {
    "symmetric-180": ("symmetric", 180, {
        "bid": CASES["bid"],
        "soc-drift-c12": ["soc-drift", "--capacity", "12"],
    }),
    "asym-gen-60": ("asym-gen", 60, {"asym-sweep-gen": CASES["asym-sweep-gen"]}),
}


def run_case(config: Path, argv: list[str], out: Path) -> dict:
    """Run one case into ``out``; its exit code and each file's sha256."""
    code = main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    return {"exit": code, "files": files}


def profile_cases(profile: str, tmp: Path) -> dict:
    """Every case of one bundled profile, or of one SHORT profile, run under
    ``tmp``: {case: run_case(...)}."""
    if profile in SHORT:
        base, n, cases = SHORT[profile]
        text = (ROOT / "profiles" / f"{base}.ini").read_text(encoding="utf-8")
        for key in ("synth_n", "window_len"):
            text, count = re.subn(rf"^{key} = \d+$", f"{key} = {n}", text, flags=re.M)
            assert count == 1, (base, key)
        config = tmp / f"{profile}.ini"
        config.write_text(text, encoding="utf-8")
    else:
        config, cases = ROOT / "profiles" / f"{profile}.ini", CASES
    return {case: run_case(config, argv, tmp / case) for case, argv in cases.items()}


@pytest.mark.parametrize("profile", [*PROFILES, *SHORT])
def test_profile_artifacts_match_recorded_digests(profile, tmp_path, capsys):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[profile]
    got = profile_cases(profile, tmp_path)
    assert sorted(recorded) == sorted(got)
    for case in got:
        assert got[case] == recorded[case], case
    capsys.readouterr()  # a sweep value with no bracket prints one error line


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for profile in (*PROFILES, *SHORT):
            (Path(tmp) / profile).mkdir()
            digests[profile] = profile_cases(profile, Path(tmp) / profile)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
