"""Benchmark of the hes-regkit command line, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bid-year --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout; nothing is installed.
One run generates the workload's inputs from ``--seed``, then runs passes of
the workload, each in a fresh process, for about ``--seconds`` seconds. Each
pass times its own import of ``hes_regkit.cli`` (``setup_s``), its CLI calls
(``wall_s``) and, around each call, a fixed reference loop that gauges the
host's speed; ``wall_ref_s`` is the wall time rescaled by it. After each
pass every op's artifacts are checked (see checks.py) and compared with the
first pass and with the digests recorded for the seed in digests.json.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print every metric by name and unit, the op counts and the environment. The
full record of the run is written to ``.perfbench/results/``. See README.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 120  # keeps a run with one hung pass under 180 s
WARM_UP_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MACHINE_NOTE = (
    "CPU pinning and frequency are not controlled: the machine is shared and "
    "its speed drifts from run to run, so read times as medians over runs"
)

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Seconds child.reference_loop_s takes at the reference speed: a round
# figure near its median on the virtual machine of README.md's baseline.
REFERENCE_LOOP_S = 0.2


def _unit(name: str) -> str:
    for suffix, unit in (("_ns_per_sample", "ns"), ("_ns_per_row_step", "ns"),
                         ("_us_per_step", "us"), ("_s", "s"), ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def checkout_root() -> Path:
    """The checkout to measure: the working directory, with the package source.

    Its ``src/`` goes first on ``sys.path``, so the output checks use the
    package under measurement and never an installed copy.
    """
    root = Path.cwd().resolve()
    for need in ("src/hes_regkit/cli.py", "profiles/symmetric.ini", "profiles/asym-gen.ini"):
        if not (root / need).is_file():
            raise SystemExit(f"error: {root / need} not found; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    return root


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})  # the workloads are single-threaded
    # The benchmark's own bytecode cache, whatever __pycache__ the checkout or
    # the installed packages hold: warm_up brings it up to date, and every
    # pass's import reads it.
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "child_threads": {var: "1" for var in THREAD_VARS},
        "note": MACHINE_NOTE,
    }


def warm_up(root: Path, env: dict[str, str]) -> None:
    """Import hes_regkit.cli once, untimed, in a fresh process.

    This compiles the run's bytecode cache and warms the file cache, as a
    tool in regular use has, so that every pass imports alike.
    """
    subprocess.run(
        [sys.executable, "-c", "import hes_regkit.cli"], cwd=root, env=env,
        timeout=WARM_UP_TIMEOUT_S, check=True,
    )


def wall_ref_s(result: dict) -> float:
    """A pass's wall time rescaled to the reference speed of the host.

    Each op's seconds are scaled by the reference loop's time before and
    after it: the closest measure of the host's speed while the op ran.
    """
    ref = result["ref_loop_s"]
    return sum(
        (op["end"] - op["start"]) * REFERENCE_LOOP_S / ((ref[i] + ref[i + 1]) / 2)
        for i, op in enumerate(result["ops"])
    )


def run_pass(root, work_dir, wl, trace: bool, env) -> dict | None:
    """One pass in a fresh process; None when the process itself failed."""
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    spec = {
        "src": str(root / "src"),
        "ops": [[op.command, list(op.argv)] for op in wl.ops],
        "trace": trace,
    }
    (work_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    result_path = work_dir / "result.json"
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "spec.json", "result.json"],
            cwd=work_dir, env=env, stdout=sys.stderr, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: pass exceeded {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: pass process exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = trace
    result["wall_ref_s"] = wall_ref_s(result)
    return result


def check_pass(work_dir: Path, wl, result: dict | None) -> list[dict]:
    """Per op: the problems found and the sha256 of each artifact."""
    # imported here: checks imports the package, found once checkout_root ran
    from checks import CHECKS, artifact_digests

    verdicts = []
    for i, op in enumerate(wl.ops):
        out = work_dir / op.out
        problems, digests = [], {}
        if result is None:
            problems.append("pass process failed")
        elif result["ops"][i]["exit"] != 0:
            problems.append(f"exit code {result['ops'][i]['exit']!r}")
        else:
            try:
                problems.extend(CHECKS[op.command](work_dir, op.argv, out))
                digests = artifact_digests(out)
            except Exception:  # a check that cannot read its artifact fails the op
                problems.append(traceback.format_exc().strip().splitlines()[-1])
        verdicts.append({"problems": problems, "digests": digests})
    return verdicts


def load_recorded(workload: str, seed: int) -> dict | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def compare_digests(wl, verdicts: list[dict], first: list[dict], recorded: dict | None) -> None:
    """Add a problem to every op whose artifacts differ from the reference."""
    for i, v in enumerate(verdicts):
        if v["problems"]:
            continue
        if first and first[i]["digests"] and v["digests"] != first[i]["digests"]:
            v["problems"].append("artifacts differ from the first pass of this run")
        if recorded is None:
            continue
        if recorded["inputs"] != wl.inputs:
            v["problems"].append("generated inputs differ from the recorded ones")
        elif v["digests"] != recorded["artifacts"][i]:
            changed = sorted(
                k for k in set(v["digests"]) | set(recorded["artifacts"][i])
                if v["digests"].get(k) != recorded["artifacts"][i].get(k)
            )
            v["problems"].append(f"artifacts differ from the recorded digests: {changed}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Everything one run measures and checks, as one dict."""
    run_env = environment()
    work_dir = root / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    env = child_env(root)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        wl = workloads.prepare(name, root, work_dir, seed)
        inputs_s = time.perf_counter() - t0
        warm_up(root, env)
        recorded = load_recorded(name, seed)

        passes, verdicts = [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            result = run_pass(root, work_dir, wl, traced, env)
            v = check_pass(work_dir, wl, result)
            compare_digests(wl, v, verdicts[0] if verdicts else [], recorded)
            passes.append(result)
            verdicts.append(v)
            if len(passes) >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run_env["loadavg_end"] = list(os.getloadavg())

    ok = [p for p in passes if p is not None]
    plain = [p for p in ok if not p["traced"]]
    traced_passes = [p for p in ok if p["traced"]]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for op in v if op["problems"])
    metrics = {}
    wall = None
    if plain:
        metrics["wall_ref_s"] = statistics.median(p["wall_ref_s"] for p in plain)
        wall = {
            "median": statistics.median(p["wall_s"] for p in plain),
            "min": min(p["wall_s"] for p in plain),
        }
        metrics["setup_s"] = statistics.median(p["import_s"] for p in ok)
        metrics["peak_rss_mib"] = statistics.median(p["peak_rss_mib"] for p in plain)
    layers = {}
    if traced_passes:
        layers = tracing.median_metrics([tracing.layer_metrics(p["spans"]) for p in traced_passes])
        if plain:
            layers["trace.overhead_s"] = (
                statistics.median(p["wall_ref_s"] for p in traced_passes)
                - metrics["wall_ref_s"]
            )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": run_env,
        "inputs": wl.inputs,
        "inputs_s": inputs_s,
        "passes": [
            None if p is None else {
                "traced": p["traced"], "wall_s": p["wall_s"], "wall_ref_s": p["wall_ref_s"],
                "ref_loop_s": p["ref_loop_s"], "import_s": p["import_s"],
                "op_s": [o["end"] - o["start"] for o in p["ops"]],
                "peak_rss_mib": p["peak_rss_mib"], "op_exit": [o["exit"] for o in p["ops"]],
                "unwrapped": p["unwrapped"],
            }
            for p in passes
        ],
        "ops": [{"command": op.command, "argv": list(op.argv)} for op in wl.ops],
        "verdicts": verdicts,
        "attempted": attempted,
        "failed": failed,
        "wall_s": wall,
        "metrics": metrics,
        "layers": layers,
    }


def _print_table(run: dict) -> None:
    env = run["environment"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"passes {len(run['passes'])}")
    print(f"environment python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}")
    print(f"environment loadavg start {env['loadavg_start']}  end {env['loadavg_end']}  "
          f"threads {env['child_threads']}")
    print(f"environment note: {env['note']}")
    print(f"{'inputs_s':44s} {run['inputs_s']:14.6f} s  (input generation, in no metric)")
    if run["wall_s"] is not None:
        print(f"{'wall_s':44s} {run['wall_s']['median']:14.6f} s  (median untraced pass, "
              f"fastest {run['wall_s']['min']:.6f} s; in no metric)")
    rows = [(k, v, END_TO_END[k]) for k, v in run["metrics"].items()]
    rows += [("ops", run["attempted"], "count"), ("ops_failed", run["failed"], "count")]
    rows += [(k, v, _unit(k)) for k, v in sorted(run["layers"].items())]
    for name, value, unit in rows:
        print(f"{name:44s} {value:14.6f} {unit}")
    for i, v in enumerate(run["verdicts"]):
        for j, op in enumerate(v):
            for problem in op["problems"]:
                print(f"FAILED pass {i} op {j} ({run['ops'][j]['command']}): {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    if not (run["layers"] if args.trace else "wall_ref_s" in run["metrics"]):
        _print_table(run)
        print("error: no pass process completed, nothing was measured", file=sys.stderr)
        return 1

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run, indent=1), encoding="utf-8"
    )
    _print_table(run)
    if args.trace:
        reported = {k: {"value": v, "unit": _unit(k)} for k, v in run["layers"].items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END[k]} for k, v in run["metrics"].items()}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
