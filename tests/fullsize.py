"""A year of windows through `bid`, `soc-drift --capacity 12` or `characterize`.

    PYTHONPATH=src python tests/fullsize.py [--windows 8760] [--window-len 1800]
        [--command bid|characterize|soc-drift]

Runs the command in-process on profiles/symmetric.ini with `synth_windows`
set to --windows and both `synth_n` and `window_len` to --window-len (8 760
hour windows of 1 800 samples at 2 s: a year at RegD's native resolution,
15.8 M samples; --window-len 180 gives six-minute windows), into a
temporary directory, and checks that it exits 0. It prints the route the
windows take (controller._route): hour windows are checked, six-minute
ones are not, and there bid scoring skips the capacities the assets track
exactly. For `bid` (the default) it checks that the bid is bracketed:
c_bar compliant, the bracket's upper end not, the two within refine_tol,
both within [c_lo, c_hi]. `bid` and `characterize` keep the profile's
energy-neutral source, which the bracket needs; `soc-drift` swaps in a
charging drift (`drifting`, bias -0.5, noise 0.8), so that windows reach the
SoC ceiling and the rule's step loop runs. For `soc-drift` it checks that the
windows take the rule's checked route, that the table has one row per
window, that at least one window reaches a bound, and that every window's
SoC minimum and maximum lie within the envelope, SOC_TOL wide. For
`characterize` it checks that window_stats.csv has one row per window, in
order. It prints the wall time and the peak RSS of the process, which are
reported, not gated: run one command a process. Not part of tier-1: `bid`
on hour windows takes tens of seconds.
"""

import argparse
import json
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

from hes_regkit import SOC_TOL, cli, controller
from hes_regkit.config import RunConfig, load_config
from hes_regkit.reports import read_csv

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini"
DRIFT_CAPACITY = 12.0
NEUTRAL_SOURCE = "synth_kind = energy-neutral-random"
DRIFT_SOURCE = "synth_kind = drifting\nsynth_bias = -0.5\nsynth_noise = 0.8"


def bid_checks(run: RunConfig, out: Path, windows: int) -> dict[str, bool]:
    solution = json.loads((out / "bid_solution.json").read_text())
    diag = solution["diagnostics"]
    c_bar, upper = solution["c_bar"], diag["upper_bracket_c"]
    z_bar = next(pt["z_gamma"] for pt in solution["curve"] if pt["c"] == c_bar)
    print(f"c_bar {c_bar!r}, bracket upper end {upper!r} (z_gamma {diag['upper_bracket_z']!r})")
    return {
        "c_lo <= c_bar < upper <= c_hi": run.sweep.c_lo <= c_bar < upper <= run.sweep.c_hi,
        "upper - c_bar <= refine_tol": upper - c_bar <= run.sweep.refine_tol,
        "z_gamma(c_bar) >= x_p_min": z_bar >= run.market.x_p_min,
        "z_gamma(upper) < x_p_min": diag["upper_bracket_z"] < run.market.x_p_min,
        "every window scored": diag["n_windows"] == windows,
    }


def soc_drift_checks(run: RunConfig, out: Path, windows: int) -> dict[str, bool]:
    header, rows, _ = read_csv(out / "soc_windows_base.csv")
    column = {name: [row[header.index(name)] for row in rows] for name in header}
    lows = [float(v) for v in column["soc_min"]]
    highs = [float(v) for v in column["soc_max"]]
    batt = run.hes.batt
    hits = column["hit_bound"].count("true")
    print(f"SoC over the windows from {min(lows)!r} to {max(highs)!r}; {hits} windows reach a bound")
    return {
        "windows take the checked route":
            controller._route(run.hes, batt.soc_init, run.window_len),
        "one row per window": column["window"] == [str(i) for i in range(windows)],
        "some window reaches a bound": hits >= 1,
        "soc_min >= envelope - SOC_TOL": min(lows) >= batt.soc_min - SOC_TOL,
        "soc_max <= envelope + SOC_TOL": max(highs) <= batt.soc_max + SOC_TOL,
    }


def characterize_checks(run: RunConfig, out: Path, windows: int) -> dict[str, bool]:
    header, rows, _ = read_csv(out / "window_stats.csv")
    print(f"window_stats.csv: {len(rows)} rows")
    return {
        "one row per window, in order":
            [row[header.index("window")] for row in rows] == [str(i) for i in range(windows)],
    }


# command: (signal source line(s), extra flags, checks)
COMMANDS = {
    "bid": (NEUTRAL_SOURCE, [], bid_checks),
    "characterize": (NEUTRAL_SOURCE, [], characterize_checks),
    "soc-drift": (DRIFT_SOURCE, ["--capacity", str(DRIFT_CAPACITY)], soc_drift_checks),
}


def set_line(text: str, pattern: str, line: str) -> str:
    """text with its one line matching pattern replaced by line."""
    text, n = re.subn(pattern, line, text, flags=re.M)
    if n != 1:
        raise SystemExit(f"{PROFILE}: expected one line matching {pattern!r}, found {n}")
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=8760)
    parser.add_argument("--window-len", type=int, default=1800)
    parser.add_argument("--command", choices=sorted(COMMANDS), default="bid")
    args = parser.parse_args()
    source, extra, checks_of = COMMANDS[args.command]
    text = PROFILE.read_text()
    for key, value in (("synth_windows", args.windows), ("synth_n", args.window_len),
                       ("window_len", args.window_len)):
        text = set_line(text, rf"^{key} = \d+$", f"{key} = {value}")
    text = set_line(text, r"^synth_kind = .*$", source)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "year.ini"
        config.write_text(text)
        run = load_config(str(config))
        checked = controller._route(run.hes, run.hes.batt.soc_init, run.window_len)
        print(f"{args.window_len}-step windows take the {'checked' if checked else 'unchecked'} route")
        out = Path(tmp) / "out"
        start = time.perf_counter()
        code = cli.main([args.command, "--config", str(config), "--out", str(out), *extra])
        wall = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{args.command} exited {code}")
        # ru_maxrss is in KiB on Linux
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{args.command} on {args.windows} {args.window_len}-step windows: {wall:.2f} s wall, "
            f"peak RSS {peak_mib:.1f} MiB"
        )
        checks = checks_of(run, out, args.windows)
    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
