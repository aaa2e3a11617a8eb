"""Print the process's memory high-water mark around each phase of one DNCE
train() call, so that a move in the benchmark's peak_rss_mb can be put on
the phase that makes it.

    python3 scripts/rss_phases.py --workload dnce-paper --seed 1

The set-up, model and config are the ones perfbench/run.py uses for the
workload (one BLAS thread, batch size 100, the workload's steps per call).
Each row is one call of ``noise.sample``, ``noise_train_step``,
``grad_estimate`` or the dev pass (``dev_log_likelihood``), in the order
the calls end, with VmHWM and VmRSS from /proc/self/status in MB before and
after it. VmHWM never falls (the kernel sums it from approximate counters,
so a row may read a few tenths of a MB below the one before), so the phase
whose row raises it is where the peak was reached. The noise phase (trainer.noise_phase) is one ``sample``
call, which brackets the whole draw; the KL step runs inside it, after
every block of the draw or while the worker thread steps blocks, so the
``noise_train_step`` row nests in the ``sample`` row. The last line gives
the high-water mark after the set-up and at the end.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = (
    ("noise_mod", "sample"),
    ("noise_mod", "noise_train_step"),
    ("trainer_mod", "grad_estimate"),
    ("trainer_mod", "dev_log_likelihood"),
)


def status_mb():
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(rest.split()[0]) / 1024.0
    return fields["VmHWM"], fields["VmRSS"]


def wrap(fn, name, rows):
    def measured(*args, **kwargs):
        before = status_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((name, *before, *status_mb()))

    return measured


def main(argv=None):
    p = argparse.ArgumentParser(prog="scripts/rss_phases.py")
    p.add_argument("--workload", choices=("dnce-small", "dnce-paper"), default="dnce-paper")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    # the benchmark's thread setting; BLAS reads it once, at numpy's import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    spec = bench.DNCE[args.workload]
    c = bench.load_corpus(spec.shape)
    model, noise = bench.dnce_models(c, spec.shape, args.seed)
    cfg = bench.trainer_mod.DnceConfig(seed=args.seed, batch_size=100, **spec.config)
    after_setup = status_mb()[0]
    rows = []
    owners = {"noise_mod": bench.noise_mod, "trainer_mod": bench.trainer_mod}
    saved = [(owners[o], a, getattr(owners[o], a)) for o, a in PHASES]
    for owner, attr, fn in saved:
        setattr(owner, attr, wrap(fn, attr, rows))
    try:
        bench.trainer_mod.train(
            cfg, c.train, c.dev, model, noise, log_sink=io.StringIO(), max_steps=spec.steps
        )
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    print("phase\tVmHWM_before\tVmHWM_after\tVmRSS_before\tVmRSS_after\t(MB)")
    for name, hwm0, rss0, hwm1, rss1 in rows:
        print("%s\t%.1f\t%.1f\t%.1f\t%.1f" % (name, hwm0, hwm1, rss0, rss1))
    print("VmHWM after set-up %.1f MB, at the end %.1f MB" % (after_setup, status_mb()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
