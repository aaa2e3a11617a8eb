"""Run one workload of the trflm benchmark and print its metrics.

    python3 perfbench/run.py --workload dnce-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a trflm checkout. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``metrics`` holds the end-to-end metrics, or with ``--trace 1`` the
per-layer ones. ``--workload all`` runs each workload in turn, each in a
process of its own. Lines before it give the machine record, each metric, the
output checks and workload details. A traced run also writes its spans to
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dnce-small", "dnce-paper", "score")
# One BLAS thread, fixed whatever the caller's environment says: timings
# must not depend on how many cores a neighbour leaves idle (README.md).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NEEDED = ("src/trflm/__init__.py", "data/train.txt", "data/dev.txt")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", w, *rest]) for w in WORKLOADS
        ]
        return max(codes)
    root = Path(__file__).resolve().parent.parent
    missing = [p for p in NEEDED if not (root / p).is_file()]
    if missing:
        print("perfbench: not a trflm checkout, missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    machine = bench.machine_record()
    print("machine\t" + json.dumps(machine))
    for name, (value, unit) in result.metrics.items():
        print("metric\t%s\t%.6g\t%s" % (name, value, unit))
    for name, ok in result.checks.items():
        print("check\t%s\t%s" % (name, "ok" if ok else "FAILED"))
    print("details\t" + json.dumps(result.details))
    if result.trace is not None:
        path = bench.OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, **result.trace}, fh)
        print("trace\t%s" % path.relative_to(root))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
