"""Output checks, run on each op's artifacts after its pass has ended.

Each check returns a list of problems; an empty list means the op passed.
The checks run in the parent process, outside every timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from hes_regkit.config import load_config
from hes_regkit.controller import load_trace_csv, validate_trace
from hes_regkit.model import SOC_TOL
from hes_regkit.offline import EQUIVALENCE_RTOL
from workloads import sha256_file

# The tolerances offline_dispatch accepts when it validates a repaired LP
# trace: solver-grade power slack, and SoC slack that grows with the window.
TRACE_POWER_TOL = 1e-6


def trace_soc_tol(n_steps: int) -> float:
    return 2e-8 * n_steps + 1e-9


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {f.name: sha256_file(f) for f in sorted(out_dir.iterdir()) if f.is_file()}


def _option(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_bid(work_dir: Path, argv, out: Path) -> list[str]:
    cfg = load_config(work_dir / _option(argv, "--config"))
    sol = json.loads((out / "bid_solution.json").read_text(encoding="utf-8"))
    diag = sol["diagnostics"]
    z_at = {pt["c"]: pt["z_gamma"] for pt in sol["curve"]}
    problems = []
    if sol["c_bar"] not in z_at:
        problems.append(f"no curve point at c_bar={sol['c_bar']!r}")
    elif not z_at[sol["c_bar"]] >= cfg.market.x_p_min > diag["upper_bracket_z"]:
        problems.append(
            f"bracket not held: z_gamma(c_bar)={z_at[sol['c_bar']]!r}, "
            f"x_p_min={cfg.market.x_p_min!r}, upper_bracket_z={diag['upper_bracket_z']!r}"
        )
    if diag["upper_bracket_c"] - sol["c_bar"] > cfg.sweep.refine_tol:
        problems.append(
            f"bracket wider than refine_tol: {diag['upper_bracket_c']!r} - {sol['c_bar']!r}"
        )
    if sol["c_star"] > cfg.market.c_max:
        problems.append(f"c_star={sol['c_star']!r} above c_max={cfg.market.c_max!r}")
    return problems


def check_soc_drift(work_dir: Path, argv, out: Path) -> list[str]:
    batt = load_config(work_dir / _option(argv, "--config")).hes.batt
    problems = []
    with open(out / "soc_windows_base.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for col in ("soc_median", "soc_min", "soc_max", "soc_final"):
                v = float(row[col])
                if not batt.soc_min - SOC_TOL <= v <= batt.soc_max + SOC_TOL:
                    problems.append(f"window {row['window']}: {col}={v!r} outside envelope")
    return problems


def check_asym_sweep(work_dir: Path, argv, out: Path) -> list[str]:
    cfg = load_config(work_dir / _option(argv, "--config"))
    report = json.loads((out / "asym_sweep.json").read_text(encoding="utf-8"))
    vary = _option(argv, "--vary")
    problems = []
    for r in report["results"]:
        if not (r["c_star"] <= min(r["c_hat"], cfg.market.c_max) and r["c_hat"] <= r["c_bar"]):
            problems.append(f"value {r['value']!r}: c_star/c_hat/c_bar out of order")
        if not (out / ("curve_%s_%g.csv" % (vary, r["value"]))).is_file():
            problems.append(f"value {r['value']!r}: curve file missing")
    return problems


def check_dispatch(work_dir: Path, argv, out: Path) -> list[str]:
    hes = load_config(work_dir / _option(argv, "--config")).hes
    problems = []
    for name in ("trace_rt.csv", "trace_offline.csv"):
        trace, _r, _c = load_trace_csv(out / name)
        bad = validate_trace(
            hes, trace, power_tol=TRACE_POWER_TOL, soc_tol=trace_soc_tol(trace.n_steps)
        )
        if bad:
            problems.append(f"{name}: {len(bad)} infeasible steps, first at k={bad[0][0]}")
    bench = json.loads((out / "benchmark.json").read_text(encoding="utf-8"))
    tol = EQUIVALENCE_RTOL * max(1.0, bench["j_off"])
    if bench["hypothesis_held"] and abs(bench["gap"]) > tol:
        problems.append(f"hypothesis held but |gap|={abs(bench['gap'])!r} > {tol!r}")
    if bench["j_off"] > bench["j_on"] + tol:
        problems.append(f"j_off={bench['j_off']!r} above j_on={bench['j_on']!r}")
    return problems


CHECKS = {
    "bid": check_bid,
    "soc-drift": check_soc_drift,
    "asym-sweep": check_asym_sweep,
    "dispatch": check_dispatch,
}
