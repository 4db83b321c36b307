"""Record the sha256 of every generated input and CLI artifact, per seed.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 1-10

For each workload and seed this runs one untraced pass and writes the input
and artifact digests into perfbench/digests.json. Later runs of those seeds
fail every op whose artifacts are no longer byte-identical. A seed that is
already recorded is checked, not overwritten: delete its entry first to
record it again. Recording stops at the first seed with a failed op, which
is not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=_seeds, help="N or FIRST-LAST")
    args = parser.parse_args(argv)

    root = run.checkout_root()
    path = run.HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in workloads.NAMES:
        for seed in args.seeds:
            result = run.run_workload(name, seed, 0, False, root)
            if result["failed"]:
                problems = [p for v in result["verdicts"] for op in v for p in op["problems"]]
                print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = {
                "inputs": result["inputs"],
                "artifacts": [op["digests"] for op in result["verdicts"][0]],
            }
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: wall_ref_s {result['metrics']['wall_ref_s']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
