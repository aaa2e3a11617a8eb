"""Per-step phase table of a traced dnce run, from its span file.

    python3 perfbench/phases.py .perfbench_out/trace-dnce-paper-seed1.json

Counts the spans inside the measured ``trainer.train`` calls (every call
but the first, which is the warm-up), leaves out the epoch-end dev
evaluation, and prints each span name's time per step and calls per step.
"""

from __future__ import annotations

import json
import sys


def phase_table(spans):
    """{name: (seconds per step, calls per step)} and the number of steps."""
    by_id = {s[0]: s for s in spans}
    trains = set([s[0] for s in spans if s[2] == "trainer.train"][1:])
    if not trains:
        raise ValueError("no measured trainer.train span in the trace")

    def root_call(span):
        """The measured train call that span runs in, or None."""
        while span[1] is not None:
            parent = by_id[span[1]]
            if parent[2] == "trainer.dev_log_likelihood":
                return None
            if parent[0] in trains:
                return parent[0]
            span = parent
        return None

    totals = {}
    for span in spans:
        if root_call(span) is not None:
            row = totals.setdefault(span[2], [0.0, 0])
            row[0] += span[4] - span[3]
            row[1] += 1
    steps = totals["trainer.grad_estimate"][1]
    return {name: (t / steps, n / steps) for name, (t, n) in totals.items()}, steps


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], encoding="utf-8") as fh:
        trace = json.load(fh)
    table, steps = phase_table(trace["spans"])
    print("%s seed %d: %d measured steps" % (trace["workload"], trace["seed"], steps))
    print("%-28s %10s %10s" % ("span", "s/step", "calls/step"))
    for name, (sec, calls) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        print("%-28s %10.4f %10.2f" % (name, sec, calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
