"""Digest the outputs of the program, and compare the digests of two trees,
so that a change meant to keep every output bit-identical can show it.

    python3 scripts/bitcheck.py --parent HEAD~1    # this tree against a revision
    python3 scripts/bitcheck.py                    # this tree's digests
    python3 scripts/bitcheck.py --default-env      # the same, at the user's thread settings

With ``--parent`` the revision is exported with ``git archive`` into a
temporary directory, as ``bench_pairs.py`` does, and the same artifacts are
made in it and in this tree. It prints one line per artifact, its name, then
``equal`` or ``different`` and the parent's and this tree's sha256, and
exits 1 if any differs. Without ``--parent`` it prints each artifact's name
and digest. Each tree runs each group of artifacts below in a process of its
own, at one BLAS thread, or with ``--default-env`` at whatever thread
settings the environment gives. Comparing the output of a run with
``--default-env`` and one without it shows which artifacts depend on the
thread count.

The groups, at seed 1, take their configs from the workload specs in the
tree's ``perfbench/bench.py``:

- ``dnce-small`` (40 steps) and ``dnce-paper`` (3 steps): one ``train()``
  call of the workload's config at batch size 100 on a fresh model and
  noise LM, as the benchmark makes them. The artifacts are the TRF
  parameters, the noise parameters, the dev history and the checkpoint
  file after it; ``log_prob_batch`` of the trained model over the dev
  sentences; ``features.extract`` over the training corpus; and the
  feature index's key arrays. ``dnce-paper`` adds ``score.log_prob_batch``:
  the ``score`` workload's seeded model, saved, loaded and scored over the
  dev sentences. ``dnce-small`` adds ``resumed.trf_params`` and
  ``resumed.noise_params``: a fresh model and noise LM resumed from the
  checkpoint (``train(..., resume=True)``) and trained 5 steps further; and
  ``noise_file.sample``: the trained noise LM saved with
  ``save_noise_model``, loaded with ``load_noise_model`` and sampled
  (``noise.sample``, 200 sentences at seed 1).
- ``trflm oracle-check`` output at its defaults, at ``--seed 1 --vocab 4
  --dim 2`` and at ``--seed 2 --max-length 4``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export

SEED = 1
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ORACLE_SETTINGS = [[], ["--seed", "1", "--vocab", "4", "--dim", "2"], ["--seed", "2", "--max-length", "4"]]
RESUMED_STEPS = 5
SAMPLE_COUNT = 200
GROUPS = [
    ["dnce", "dnce-small", 40, RESUMED_STEPS],
    ["dnce", "dnce-paper", 3],
    *(["oracle", *args] for args in ORACLE_SETTINGS),
]
TINY = [["dnce", "dnce-small", 2], ["oracle", *ORACLE_SETTINGS[1]]]  # a few seconds


def digest(arrays) -> str:
    """sha256 of named arrays: each one's name, dtype, shape and bytes, by name."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(("%s %s %s\n" % (name, a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def numbered(arrays):
    return {"%03d" % i: a for i, a in enumerate(arrays)}


def dnce_digests(name, steps, resumed_steps=0):
    """The artifacts of one DNCE workload, made by the imported tree's code;
    with resumed_steps, also those of a resume and of the noise file."""
    import bench
    from trflm import features, trainer
    from trflm import noise as noise_mod
    from trflm.model import TrfModel, load_noise_model, save_noise_model

    spec = bench.DNCE[name]
    c = bench.load_corpus(spec.shape)
    model, noise = bench.dnce_models(c, spec.shape, SEED)
    config = trainer.DnceConfig(seed=SEED, batch_size=100, **spec.config)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint")
        _, state = trainer.train(
            config, c.train, c.dev, model, noise, log_sink=io.StringIO(),
            checkpoint_path=path, max_steps=steps,
        )
        out["checkpoint"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if resumed_steps:
            resumed, resumed_noise = bench.dnce_models(c, spec.shape, SEED)
            done = state.epoch * math.ceil(len(c.train) / config.batch_size)
            trainer.train(
                config, c.train, c.dev, resumed, resumed_noise, log_sink=io.StringIO(),
                checkpoint_path=path, resume=True, max_steps=done + resumed_steps,
            )
            out["resumed.trf_params"] = digest(resumed.params())
            out["resumed.noise_params"] = digest(resumed_noise.params)
            noise_path = os.path.join(tmp, "noise")
            save_noise_model(noise, c.vocab, noise_path)
            loaded, _ = load_noise_model(noise_path)
            drawn, log_p = noise_mod.sample(loaded, SAMPLE_COUNT, np.random.default_rng(SEED))
            out["noise_file.sample"] = digest({"log_p": log_p, **numbered(map(np.array, drawn))})
        if spec.shape == bench.PAPER:
            path = os.path.join(tmp, "score.trf")
            bench.seeded_paper_model(c, SEED).save(path)
            scored = TrfModel.load(path).log_prob_batch(c.dev)
            out["score.log_prob_batch"] = digest({"": scored})
    out["trf_params"] = digest(model.params())
    out["noise_params"] = digest(noise.params)
    out["dev_history"] = digest({"": np.array(state.dev_history)})
    out["log_prob_batch"] = digest({"": model.log_prob_batch(c.dev)})
    out["extract"] = digest(numbered(features.extract(c.train, c.index)))
    out["key_arrays"] = digest(numbered(c.index.key_arrays))
    return {"%s.%s" % (name, k): v for k, v in sorted(out.items())}


def oracle_digests(args):
    from trflm import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["oracle-check", *args])
    text = "exit %d\n%s" % (code, printed.getvalue())
    return {"oracle-check %s" % (" ".join(args) or "defaults"): hashlib.sha256(text.encode()).hexdigest()}


def group_digests(tree: Path, group):
    """One group's artifacts, made by the code of tree (its src and perfbench)."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import trflm

    if not Path(trflm.__file__).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError("imported %s, not the trflm of %s" % (trflm.__file__, tree))
    kind, *args = group
    return dnce_digests(*args) if kind == "dnce" else oracle_digests(args)


def tree_digests(tree: Path, groups, default_env=False):
    """The artifacts of every group in tree, each group in its own process."""
    env = dict(os.environ) if default_env else {**os.environ, **ONE_THREAD}
    out = {}
    for group in groups:
        argv = [sys.executable, __file__, "--tree", str(tree), "--group", json.dumps(group)]
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError("%s failed in %s:\n%s" % (group, tree, proc.stderr))
        out.update(json.loads(proc.stdout.splitlines()[-1]))
    return out


def compare(parent, change):
    """One line per artifact of either side: name, equal or different, and
    the parent's and the change's digests ("-" where a side lacks it)."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, "-"), change.get(name, "-")
        lines.append("%s\t%s\t%s\t%s" % (name, "equal" if a == b else "different", a, b))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision to compare this tree against")
    ap.add_argument("--default-env", action="store_true",
                    help="keep the environment's BLAS thread settings, not one thread")
    ap.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--group", type=json.loads, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.tree is not None:  # one group in one tree: the child process's job
        print(json.dumps(group_digests(args.tree, args.group)))
        return 0
    change = tree_digests(ROOT, GROUPS, args.default_env)
    if args.parent is None:
        for name, value in sorted(change.items()):
            print("%s\t%s" % (name, value))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, Path(tmp))
        parent = tree_digests(Path(tmp), GROUPS, args.default_env)
    lines = compare(parent, change)
    print("\n".join(lines))
    return 1 if any("\tdifferent\t" in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
