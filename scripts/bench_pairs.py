"""Run alternating parent/change pairs of the benchmark and record them.

    python3 scripts/bench_pairs.py --workload score --parent HEAD~1 --pairs 10 \
        --seconds 20 --out BENCH_8.json

The parent revision is exported with ``git archive`` into a temporary
directory, and the change, the working tree this script lives in, is
copied into another: its tracked and untracked files, not the ignored ones
(``git ls-files``). Both sides thus run from fresh copies alike, with no
bytecode cache or benchmark output of earlier runs. Pair i
runs ``perfbench/run.py --workload <w> --seed i --seconds <s>`` once on
each side, the parent first in odd pairs and the change first in even
ones, so that drift in the machine's speed falls on both sides alike.
Run from a clean working tree with ``--parent HEAD``, both sides are the
same code: such a same-tree control shows how far a metric moves with no
change, before a move in a change's pairs is read as its effect.

The workload's section of ``--out`` (a ``BENCH_<n>.json`` file) is
written from the runs, and ``command``, ``protocol`` and ``machine`` at
its top level; other keys in an existing file are kept. Per end-to-end
metric of BENCHMARK.json, a section gives each side's value in every
pair (pair i at index i - 1) and quartiles, the change's median relative
to the parent's, the parent's interquartile range, and in how many pairs
the change was better or tied; after the pairs the script prints those
figures, one line per metric, with the metric's judgement against its
BENCHMARK.json bound (``verdict``). On the DNCE
workloads it adds the same for ``op_ms.p50_interior``: the median step
interval of a run with each ``train()`` call's first interval left out,
from the ``step_s`` list of the run's details line. The first interval
runs from the call's start to the first step stamp, so it holds whatever
part of a step comes before that stamp.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <w> --seed <pair> --seconds %g"
PROTOCOL = "alternating pairs, odd pairs parent first, even pairs change first; pair i uses seed i"


def run_once(tree: Path, workload, seed, seconds):
    """One benchmark run in a checkout: (machine record, result object),
    the result carrying the run's details line under "details"."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if not lines:
        raise RuntimeError("%s in %s printed nothing:\n%s" % (" ".join(argv), tree, out.stderr))

    def line(tag):
        return next((json.loads(l.split("\t", 1)[1]) for l in lines if l.startswith(tag)), None)

    result = json.loads(lines[-1])
    result["details"] = line("details\t") or {}
    return line("machine\t"), result


def export(rev, dest: Path):
    """Write the tree of a git revision into dest, or with rev None the
    working tree's tracked and untracked files, without the ignored ones."""
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(dest)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in listed:
        if name and (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def quartiles(values):
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def interior_step_ms(details):
    """Median step interval in ms without each train() call's first one."""
    steps = details["step_s"]
    per_call = len(steps) // details["train_calls"]
    return 1000.0 * float(np.median([t for i, t in enumerate(steps) if i % per_call]))


def compare(p, c, unit, better, bound=None):
    """One metric's entry from its per-pair parent and change values."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(p), quartiles(c)
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        "parent_per_pair": [float(v) for v in p],
        "change_per_pair": [float(v) for v in c],
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "change_vs_parent_median": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
        "parent_iqr": pq[2] - pq[0],
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        "ties": sum(a == b for a, b in zip(p, c)),
    }


def summarize(parent_runs, change_runs, end_to_end):
    """The section of one workload from its paired runs.

    parent_runs[i] and change_runs[i] are the result objects of pair i, as
    the last line of perfbench/run.py prints them; end_to_end is the
    BENCHMARK.json list of metrics with their "better" direction.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of parent and change runs")
    metrics = {}
    for m in end_to_end:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        metrics[name] = compare(p, c, m["unit"], m["better"], m["bound"])
    if all("step_s" in r.get("details", {}) for r in parent_runs + change_runs):
        metrics["op_ms.p50_interior"] = compare(
            [interior_step_ms(r["details"]) for r in parent_runs],
            [interior_step_ms(r["details"]) for r in change_runs],
            "ms", "lower",
        )

    def failed(runs):
        return [[r["failed"], r["attempted"]] for r in runs]

    return {
        "pairs": len(parent_runs),
        "metrics": metrics,
        "parent_correct": all(r["correct"] for r in parent_runs),
        "parent_failed_of_attempted": failed(parent_runs),
        "change_correct": all(r["correct"] for r in change_runs),
        "change_failed_of_attempted": failed(change_runs),
        "all_checks_ok": all(r["correct"] for r in parent_runs + change_runs),
        "dev_nll_bit_identical_every_pair": all(
            a["metrics"]["dev_nll"]["value"] == b["metrics"]["dev_nll"]["value"]
            for a, b in zip(parent_runs, change_runs)
        ),
    }


def judge(m):
    """A metric entry against its bound: "past bound" where the change's
    median is worse than the parent's by more than the bound; else
    "unresolved" where the parent's IQR exceeds the bound relative to its
    median and not every change run reads better than every parent run;
    else "within bound". None for an entry without a bound or a median."""
    rel, bound, median = m["change_vs_parent_median"], m.get("bound"), m["parent_q1_median_q3"][1]
    if bound is None or rel is None:
        return None
    sign = 1.0 if m["better"] == "higher" else -1.0
    if sign * rel < -bound:
        return "past bound %g%%" % (100.0 * bound)
    spread = m["parent_iqr"] / abs(median)
    every_run_better = min(sign * v for v in m["change_per_pair"]) > max(
        sign * v for v in m["parent_per_pair"]
    )
    if spread > bound and not every_run_better:
        return "unresolved: parent IQR %.1f%% of its median, bound %g%%" % (
            100.0 * spread, 100.0 * bound)
    return "within bound %g%%" % (100.0 * bound)


def verdict(section):
    """One line per metric of a workload's section: the change's median
    against the parent's, the pairs it won and tied, the parent's IQR, and
    the judgement against the metric's bound where it has one."""
    lines = []
    for name, m in section["metrics"].items():
        rel, judged = m["change_vs_parent_median"], judge(m)
        line = "%s: change vs parent median %s, wins %d of %d, ties %d, parent IQR %.4g %s" % (
            name, "n/a" if rel is None else "%+.1f%%" % (100.0 * rel),
            m["change_wins"], section["pairs"], m["ties"], m["parent_iqr"], m["unit"])
        lines.append(line if judged is None else line + "; " + judged)
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(prog="scripts/bench_pairs.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, help="the BENCH_<n>.json file to update")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs, machine = [], [], None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree:
        export(args.parent, Path(parent_tree))
        export(None, Path(change_tree))
        for i in range(1, args.pairs + 1):
            sides = [("parent", Path(parent_tree)), ("change", Path(change_tree))]
            for side, tree in sides if i % 2 else sides[::-1]:
                machine, result = run_once(tree, args.workload, i, args.seconds)
                (parent_runs if side == "parent" else change_runs).append(result)
                print("pair %d %s: setup_s %.4g op_ms.p50 %.4g correct %s" % (
                    i, side, result["metrics"]["setup_s"]["value"],
                    result["metrics"]["op_ms.p50"]["value"], result["correct"]), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(command=COMMAND % args.seconds, protocol=PROTOCOL, machine=machine)
    section = doc.setdefault("workloads", {})[args.workload] = summarize(
        parent_runs, change_runs, spec["end_to_end"]
    )
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(verdict(section)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
