"""A year of windows through `bid`, `soc-drift --capacity 12` or `characterize`,
or the rule against the exact bound.

    PYTHONPATH=src python tests/fullsize.py [--windows 8760] [--window-len 1800]
        [--command bid|bound|characterize|soc-drift]

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
order. `bound` runs no subcommand: it checks the paper's claim at this
size, on the neutral source at 4, 12 and 20 MW and on the charging drift
at 12 MW, BOUND_BLOCK windows at a time. On every window the rule's L1
error j (rt_error_sums, the batch entry point bid uses) is no less than the
relaxation's value V (offline._relaxation_values), the least any dispatch
reaches; where the closed form holds, j = V. It prints the wall time and
the peak RSS of the process, which are reported, not gated: run one command
a process. Not part of tier-1: `bid` on hour windows takes tens of seconds.
"""

import argparse
import json
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hes_regkit import SOC_TOL, cli, controller, offline
from hes_regkit.config import RunConfig, load_config, resolve_archive
from hes_regkit.reports import read_csv

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini"
DRIFT_CAPACITY = 12.0
NEUTRAL_SOURCE = "synth_kind = energy-neutral-random"
DRIFT_SOURCE = "synth_kind = drifting\nsynth_bias = -0.5\nsynth_noise = 0.8"
# `bound`: the capacities each source runs at, and the windows per call
BOUND_CASES = {"neutral": (NEUTRAL_SOURCE, (4.0, 12.0, 20.0)),
               "drift": (DRIFT_SOURCE, (DRIFT_CAPACITY,))}
BOUND_BLOCK = 256
# how far below V the rule's j may read, relative to max(1, V), on every
# window: -8.4e-15 was the worst at 8 760 hour windows (neutral, 20 MW);
# and how far from V where the closed form holds: 1.4e-14 (neutral, 4 MW).
# numpy 2.4.6 on a shared 2-CPU x86-64 Xeon
BOUND_RTOL = 1e-13
INTERIOR_RTOL = 1e-13


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


def year_config(path: Path, args: argparse.Namespace, source: str) -> RunConfig:
    """The profile with the year's window count and length and this signal
    source, written to path and loaded."""
    text = PROFILE.read_text()
    for key, value in (("synth_windows", args.windows), ("synth_n", args.window_len),
                       ("window_len", args.window_len)):
        text = set_line(text, rf"^{key} = \d+$", f"{key} = {value}")
    path.write_text(set_line(text, r"^synth_kind = .*$", source))
    return load_config(str(path))


def report(name: str, args: argparse.Namespace, wall: float) -> None:
    # ru_maxrss is in KiB on Linux
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{name} on {args.windows} {args.window_len}-step windows: {wall:.2f} s wall, "
        f"peak RSS {peak_mib:.1f} MiB"
    )


def command_checks(args: argparse.Namespace, tmp: Path) -> dict[str, bool]:
    source, extra, checks_of = COMMANDS[args.command]
    config = tmp / "year.ini"
    run = year_config(config, args, source)
    checked = controller._route(run.hes, run.hes.batt.soc_init, run.window_len)
    print(f"{args.window_len}-step windows take the {'checked' if checked else 'unchecked'} route")
    out = tmp / "out"
    start = time.perf_counter()
    code = cli.main([args.command, "--config", str(config), "--out", str(out), *extra])
    if code != 0:
        raise SystemExit(f"{args.command} exited {code}")
    report(args.command, args, time.perf_counter() - start)
    return checks_of(run, out, args.windows)


def bound_case(name: str, run: RunConfig, capacities: tuple) -> dict[str, bool]:
    """`bound`'s checks on one source's windows at each of its capacities."""
    cfg, batt = run.hes, run.hes.batt
    samples = resolve_archive(run).samples
    checks = {}
    for c in capacities:
        below, above, interior, held = 0.0, 0.0, 0.0, 0
        for rows in np.array_split(samples, range(BOUND_BLOCK, len(samples), BOUND_BLOCK)):
            j = controller.rt_error_sums(cfg, [c], rows, cfg.dt)[0]
            value = offline._relaxation_values(cfg, c, rows)
            gap = (j - value) / np.maximum(1.0, value)
            # closed_form_dispatch's test, on the block's windows at once
            soc = controller._rule_columns(cfg, c, rows.T, batt.soc_init, True)[-1][1:]
            closed = (soc.min(axis=0) > batt.soc_min) & (soc.max(axis=0) < batt.soc_max)
            below, above = min(below, float(gap.min())), max(above, float(gap.max()))
            interior = max(interior, float(np.abs(gap[closed]).max(initial=0.0)))
            held += int(closed.sum())
        print(f"{name} at {c} MW: (j - V) / max(1, V) from {below!r} to {above!r}; the closed "
              f"form holds on {held} windows, and |j - V| / max(1, V) is at most {interior!r} there")
        checks[f"{name} at {c} MW: j >= V on every window"] = below >= -BOUND_RTOL
        checks[f"{name} at {c} MW: j = V where the closed form holds"] = interior <= INTERIOR_RTOL
    return checks


def bound_checks(args: argparse.Namespace, tmp: Path) -> dict[str, bool]:
    checks = {}
    start = time.perf_counter()
    for name, (source, capacities) in BOUND_CASES.items():
        checks.update(bound_case(name, year_config(tmp / f"{name}.ini", args, source), capacities))
    report("bound", args, time.perf_counter() - start)
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=8760)
    parser.add_argument("--window-len", type=int, default=1800)
    parser.add_argument("--command", choices=sorted([*COMMANDS, "bound"]), default="bid")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.command == "bound":
            checks = bound_checks(args, Path(tmp))
        else:
            checks = command_checks(args, Path(tmp))
    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
