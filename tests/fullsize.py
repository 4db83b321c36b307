"""A year of hour windows through `bid`: exit 0 and a bracketed bid.

    PYTHONPATH=src python tests/fullsize.py [--windows 8760]

Runs `bid` in-process on profiles/symmetric.ini with `synth_windows` set to
--windows (8 760 hour windows of 1 800 samples at 2 s: a year at RegD's
native resolution, 15.8 M samples), into a temporary directory. It checks
that the command exits 0 and that its bid is bracketed: c_bar compliant,
the bracket's upper end not, the two within refine_tol, both within
[c_lo, c_hi]. It prints the wall time and the peak RSS, which are reported,
not gated. Not part of tier-1: it takes tens of seconds.
"""

import argparse
import json
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

from hes_regkit import cli
from hes_regkit.config import load_config

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=8760)
    args = parser.parse_args()
    text, n = re.subn(
        r"^synth_windows = \d+$", f"synth_windows = {args.windows}", PROFILE.read_text(),
        flags=re.M,
    )
    if n != 1:
        raise SystemExit(f"{PROFILE}: expected one synth_windows line, found {n}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "year.ini"
        config.write_text(text)
        run = load_config(str(config))
        out = Path(tmp) / "out"
        start = time.perf_counter()
        code = cli.main(["bid", "--config", str(config), "--out", str(out)])
        wall = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"bid exited {code}")
        solution = json.loads((out / "bid_solution.json").read_text())
    diag = solution["diagnostics"]
    c_bar, upper = solution["c_bar"], diag["upper_bracket_c"]
    z_bar = next(pt["z_gamma"] for pt in solution["curve"] if pt["c"] == c_bar)
    checks = {
        "c_lo <= c_bar < upper <= c_hi": run.sweep.c_lo <= c_bar < upper <= run.sweep.c_hi,
        "upper - c_bar <= refine_tol": upper - c_bar <= run.sweep.refine_tol,
        "z_gamma(c_bar) >= x_p_min": z_bar >= run.market.x_p_min,
        "z_gamma(upper) < x_p_min": diag["upper_bracket_z"] < run.market.x_p_min,
        "every window scored": diag["n_windows"] == args.windows,
    }
    # ru_maxrss is in KiB on Linux
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bid on {args.windows} windows: {wall:.2f} s wall, peak RSS {peak_mib:.1f} MiB")
    print(f"c_bar {c_bar!r}, bracket upper end {upper!r} (z_gamma {diag['upper_bracket_z']!r})")
    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
