"""Print the process's memory high-water mark around each phase of one
benchmark workload, so that a move in the benchmark's peak_rss_mb can be
put on the phase that makes it.

    python3 scripts/rss_phases.py --workload dnce-paper --seed 1
    python3 scripts/rss_phases.py --workload score --seed 1 --seconds 20

The set-up, model and config are the ones perfbench/run.py uses for the
workload (one BLAS thread). Each row is one call of a phase, in the order
the calls end, with VmHWM and VmRSS from /proc/self/status in MB and the
process's minor page faults (``ru_minflt`` of getrusage, all threads)
before and after it; the calls of a phase in MERGED that follow one another
make one row, from before the first to after the last (its ``calls``
column).
VmHWM never falls (the kernel sums it from approximate counters, so a row
may read a few tenths of a MB below the one before), so the phase whose
row raises it is where the peak was reached.

- ``dnce-*``: a perplexity window on the fresh model, one train() call of
  the workload's steps, batch size 100, and a perplexity window on the
  trained model, as the benchmark's windows (``ppl_window``, the
  workload's PPL_REPS perplexity calls over dev each). The phases of the
  train() call are ``noise.sample``, ``noise_train_step``,
  ``grad_estimate`` and the dev pass (``dev_log_likelihood``). The noise phase
  (trainer.noise_phase) is one ``sample`` call, which brackets the whole
  draw; the KL step runs inside it, after every block of the draw or while
  the worker thread steps blocks, so the ``noise_train_step`` row nests in
  the ``sample`` row. A second table has one row per DNCE step, from
  train()'s ``on_step`` callback: VmHWM, VmRSS and minor faults after the
  step, D's tokens, and the mean P(C=0|x) over D, B1 and B2 from the step's
  record. A mean on the noise draws (B1, B2) near 1/(1+nu) says that the
  classifier cannot tell the noise from the data. A line after it sums the
  minor faults over the steps, from the first noise draw to the last step's
  end.
- ``score``: the benchmark's scoring run for ``--seconds``. The phases are
  the set-up (``load_corpus``, ``seeded_paper_model``, ``save``, then the
  five timed ``TrfModel.load`` calls), each perplexity window
  (``ppl_window``), the rescoring calls (``rescore_corpus``, one row for
  the warm-up and the measured loop, which follow one another) and the
  output checks (``score_checks``).

The last line gives the high-water mark before the first phase and at the
end.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = {
    "dnce": (
        ("noise_mod", "sample"),
        ("noise_mod", "noise_train_step"),
        ("trainer_mod", "grad_estimate"),
        ("trainer_mod", "dev_log_likelihood"),
        ("bench", "ppl_window"),
    ),
    "score": (
        ("bench", "load_corpus"),
        ("bench", "seeded_paper_model"),
        ("TrfModel", "save"),
        ("TrfModel", "load"),
        ("bench", "ppl_window"),
        ("eval_mod", "rescore_corpus"),
        ("bench", "score_checks"),
    ),
}
MERGED = {"rescore_corpus"}  # one call an utterance


def status_mb():
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(rest.split()[0]) / 1024.0
    return fields["VmHWM"], fields["VmRSS"]


def reading():
    """(VmHWM, VmRSS, minor page faults) of this process."""
    return (*status_mb(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def wrap(fn, name, rows):
    """fn, recording its phase into rows; in a MERGED phase, a call that
    ends right after a call of the same phase extends that call's row."""

    def measured(*args, **kwargs):
        before = reading()
        try:
            return fn(*args, **kwargs)
        finally:
            after = reading()
            if name in MERGED and rows and rows[-1][0] == name:
                _, calls, *before = rows[-1][:5]
                rows[-1] = (name, calls + 1, *before, *after)
            else:
                rows.append((name, 1, *before, *after))

    return measured


def step_row(step, record):
    """(step, VmHWM, VmRSS, minor faults, D's tokens, mean P(C=0|x) on D,
    B1 and B2) of one DNCE step's record."""
    p0, d, mix = record.p0, record.d, record.d + record.b1
    return (step, *reading(), record.d_tokens, p0[:d].mean(), p0[d:mix].mean(), p0[mix:].mean())


def run_dnce(bench, workload, seed, steps):
    spec = bench.DNCE[workload]
    c = bench.load_corpus(spec.shape)
    model, noise = bench.dnce_models(c, spec.shape, seed)
    cfg = bench.trainer_mod.DnceConfig(seed=seed, batch_size=100, **spec.config)

    def work():
        bench.ppl_window(model, c.dev, bench.PPL_REPS[workload], [])
        bench.trainer_mod.train(
            cfg, c.train, c.dev, model, noise, log_sink=io.StringIO(), max_steps=spec.steps,
            on_step=lambda step, record: steps.append(step_row(step, record)),
        )
        bench.ppl_window(model, c.dev, bench.PPL_REPS[workload], [])

    return work


def main(argv=None):
    p = argparse.ArgumentParser(prog="scripts/rss_phases.py")
    p.add_argument("--workload", choices=("dnce-small", "dnce-paper", "score"), default="dnce-paper")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="score only: the run's length")
    args = p.parse_args(argv)
    # the benchmark's thread setting; BLAS reads it once, at numpy's import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    steps = []
    if args.workload == "score":
        bench.OUT.mkdir(exist_ok=True)
        work = lambda: bench.run_score(args.workload, args.seed, args.seconds, bench.Session(None))
        phases = PHASES["score"]
    else:
        work = run_dnce(bench, args.workload, args.seed, steps)
        phases = PHASES["dnce"]
    first = status_mb()[0]
    rows = []
    owners = {
        "bench": bench,
        "noise_mod": bench.noise_mod,
        "trainer_mod": bench.trainer_mod,
        "eval_mod": bench.eval_mod,
        "TrfModel": bench.model_mod.TrfModel,
    }
    # put back from the owner's __dict__, so that a classmethod stays one
    saved = [(owners[o], a, vars(owners[o])[a]) for o, a in phases]
    for owner, attr, _ in saved:
        setattr(owner, attr, wrap(getattr(owner, attr), attr, rows))
    try:
        work()
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    print("phase\tcalls\tVmHWM_before\tVmHWM_after\tVmRSS_before\tVmRSS_after"
          "\tminflt_before\tminflt_after\t(Vm* in MB)")
    for name, calls, hwm0, rss0, flt0, hwm1, rss1, flt1 in rows:
        print("%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d"
              % (name, calls, hwm0, hwm1, rss0, rss1, flt0, flt1))
    if steps:
        print("step\tVmHWM\tVmRSS\tminflt\tD_tokens\tp0_D\tp0_B1\tp0_B2\t(after the step)")
        for row in steps:
            print("%d\t%.1f\t%.1f\t%d\t%d\t%.4f\t%.4f\t%.4f" % row)
        start = next(flt0 for name, _, _, _, flt0, *_ in rows if name == "sample")
        print("minor faults over the %d steps: %d" % (len(steps), steps[-1][3] - start))
    print("VmHWM before the first phase %.1f MB, at the end %.1f MB" % (first, status_mb()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
