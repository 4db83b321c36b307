"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds the package source directory, the ops (command name and argv for
``hes_regkit.cli.main``) and whether to trace. The process runs with its
working directory set to the workload's work directory. RESULT receives the
import time, the wall time of the CLI calls, the time of the reference loop
before the first call, between calls and after the last, the peak resident
memory, each op's exit code and times and, when traced, the spans.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def reference_loop_s() -> float:
    """Seconds a fixed piece of work takes: the host's speed just now.

    About two thirds of it is a pure-Python loop and a third numpy calls on
    small arrays, the two kinds of work the CLI's time goes to. The host's speed drifts by
    tens of percent over minutes; run.py divides each pass's wall time by
    this figure (see README.md).
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(5):
        acc = 0
        for i in range(250_000):
            acc += i * i % 7
    x, y = np.zeros(16), np.ones(16)
    for _ in range(15_000):
        x = np.minimum(x + 0.5 * y, 3.0) * 0.9
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    """This process's own peak resident memory.

    ``getrusage``'s ``ru_maxrss`` would not do: exec carries the high-water
    mark of the replaced address space (the harness's) into it. VmHWM belongs
    to the address space that exec created.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    t0 = time.perf_counter()
    import hes_regkit.cli as cli

    import_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ref_loop_s = [reference_loop_s()]
    ops = []
    for command, argv in spec["ops"]:
        call = tracer.span("cli." + command, cli.main) if tracer else cli.main
        start = time.perf_counter()
        try:
            code = call(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception:  # one failing op must not lose the others
            traceback.print_exc()
            code = None
        ops.append({"exit": code, "start": start, "end": time.perf_counter()})
        ref_loop_s.append(reference_loop_s())

    result = {
        "import_s": import_s,
        "wall_s": sum(op["end"] - op["start"] for op in ops),
        "ref_loop_s": ref_loop_s,
        "peak_rss_mib": peak_rss_mib(),
        "ops": ops,
        "spans": tracer.spans if tracer else [],
        "unwrapped": tracer.missing if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
