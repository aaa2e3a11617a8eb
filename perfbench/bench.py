"""Workloads, metrics and output checks of the trflm benchmark.

Each workload is one closed loop with one caller in one process: trflm is
an offline trainer and batch scorer. ``run`` returns the end-to-end
metrics, or with ``trace=True`` the per-layer metrics taken from spans
around calls into the library. README.md maps each metric to its layer
and workload.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import io
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from trflm import corpus as corpus_mod  # noqa: E402
from trflm import evaluation as eval_mod  # noqa: E402
from trflm import features as feats  # noqa: E402
from trflm import model as model_mod  # noqa: E402
from trflm import neural  # noqa: E402
from trflm import noise as noise_mod  # noqa: E402
from trflm import trainer as trainer_mod  # noqa: E402
from trflm.corpus import CorpusError  # noqa: E402

from tracing import Patches, Tracer, summarize  # noqa: E402

DATA = ROOT / "data"
OUT = ROOT / ".perfbench_out"
CLASS_MAP = HERE / "classes200.txt"

VOCAB_SIZE = 2000
MAX_TRAIN_LENGTH = 60
LM_WEIGHT = 1.0


@dataclass(frozen=True)
class Shape:
    templates: str
    cutoffs: str
    class_map: bool
    dim: int


SMALL = Shape("w:2", "02", False, 16)
PAPER = Shape("w+c+ws+cs:4", "0022", True, 200)


@dataclass(frozen=True)
class DnceSpec:
    shape: Shape
    config: dict
    steps: int  # per train() call; fixed so dev_ll does not depend on --seconds
    call_s: float  # nominal seconds of one call; --seconds sets how many calls


DNCE = {
    # tests/test_acceptance.py bundled_runs in mixed mode: 300 sentences per step
    "dnce-small": DnceSpec(
        SMALL,
        dict(
            alpha=0.5, nu=0.5, lr_lambda=0.01, lr_theta=0.01, lr_zeta=0.01, lr_noise=0.5,
            schedule="per-epoch-halving", halve_every=1, stop_ratio=1e-9,
        ),
        steps=20,
        call_s=9.0,
    ),
    # the paper setting with the CLI's default learning rates: 1000 sentences per step
    "dnce-paper": DnceSpec(PAPER, dict(alpha=0.2, nu=1.0), steps=3, call_s=30.0),
}

# Set-ups per run, and perplexity calls in each of the run's two perplexity
# windows (before and after the measured loop); timings are medians over
# them. Short blocks are repeated more, so that each lasts a second or more.
SETUP_REPS = {"dnce-small": 7, "dnce-paper": 3, "score": 5}
PPL_REPS = {"dnce-small": 12, "dnce-paper": 2, "score": 2}

# score: at least 200 utterances, so that p95 has ten samples beyond it
MIN_UTTS = 200
UTT_S = 0.037  # nominal seconds per utterance; --seconds sets how many
HYPS_PER_UTT = (4, 12)
MAX_EDITS = 3

# Mean dev log-likelihood after each dnce workload's train() call, recorded
# on the benchmark's first commit as (mean, standard deviation) over workload
# seeds 1-20 (dnce-small) and 1-10 (dnce-paper). A run passes within
# DEV_LL_SDS deviations; the untrained models sit 9 and 11 deviations below.
DEV_LL_REF = {"dnce-small": (-72.1244, 0.2564), "dnce-paper": (-74.3022, 0.0162)}
DEV_LL_SDS = 5.0

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "tokens_per_s": "tok/s",
    "ppl_sents_per_s": "sent/s",
    "dev_nll": "nats",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


@dataclass
class Corpus:
    vocab: object
    prior: object
    train: list
    dev: list
    class_map: object
    index: object


@dataclass
class Outcome:
    setup_times: list
    op_times: list  # seconds per operation: a DNCE step or one utterance
    tokens_per_s: float
    ppl_times: list
    n_dev: int
    dev_ll: float
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def load_corpus(shape: Shape) -> Corpus:
    """The set-up `trflm train` does: vocabulary, corpora, class map, features."""
    with open(DATA / "train.txt", encoding="utf-8") as fh:
        lines = fh.readlines()
    vocab = corpus_mod.build_vocab(lines, VOCAB_SIZE)
    train = corpus_mod.read_corpus(DATA / "train.txt", vocab, max_length=MAX_TRAIN_LENGTH)
    L = max(len(s) for s in train)
    prior = corpus_mod.length_prior(train, L)
    dev = [
        s
        for s in corpus_mod.read_corpus(DATA / "dev.txt", vocab, max_length=L)
        if prior.prob(len(s)) > 0
    ]
    class_map = corpus_mod.ClassMap.load(CLASS_MAP, vocab) if shape.class_map else None
    tset = feats.compile_templates(shape.templates, class_map_present=class_map is not None)
    index = feats.build_feature_index(train, tset, shape.cutoffs, class_map=class_map)
    return Corpus(vocab, prior, train, dev, class_map, index)


def new_model(c: Corpus, shape: Shape, lam, phi_params):
    return model_mod.TrfModel(
        c.vocab,
        c.prior,
        model_mod.zeta_init(c.vocab.size, c.prior.max_length),
        feature_index=c.index,
        lam=lam,
        phi_params=phi_params,
        class_map=c.class_map,
        template_spec=shape.templates,
    )


def repeat(fn, reps):
    """Call fn reps times; return the wall time of each call and the last result."""
    times = []
    for _ in range(reps):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    return times, out


def ppl_window(model, dev, reps, times):
    """perplexity(dev) reps times; appends the wall times, returns the value."""
    window, ppl = repeat(lambda: eval_mod.perplexity(model, dev), reps)
    times.extend(window)
    return ppl


def dnce_models(c: Corpus, shape: Shape, seed):
    """A fresh mixed model and noise LM, initialised from the workload seed."""
    phi = neural.init_phi_params(c.vocab.size, shape.dim, seed=seed)
    model = new_model(c, shape, np.zeros(c.index.n_features), phi)
    noise = noise_mod.init_noise_model(c.vocab.size, shape.dim, c.prior, seed=seed + 1)
    return model, noise


class StepClock:
    """One timestamp per DNCE step, taken when the trainer's per-step
    ``noise_train_step(noise, D, lr)`` returns; also counts the tokens of D."""

    def __init__(self, patches: Patches, owner=noise_mod):
        self.stamps = []
        self.tokens = 0
        patches.replace(owner, "noise_train_step", self._wrap)

    def _wrap(self, fn):
        def stamped(noise, minibatch, lr):
            result = fn(noise, minibatch, lr)
            self.stamps.append(clock())
            self.tokens += sum(len(s) for s in minibatch)
            return result

        return stamped

    def start(self):
        self.stamps = [clock()]
        self.tokens = 0

    def step_times(self):
        return list(np.diff(self.stamps))


def stamp_cost_s(n=20000):
    """Cost of the StepClock wrapper per call, against the bare call."""
    patches = Patches()

    class Host:
        @staticmethod
        def noise_train_step(noise, minibatch, lr):
            return noise

    bare = Host.noise_train_step
    t0 = clock()
    for _ in range(n):
        bare(None, (), 0.0)
    t_bare = clock() - t0
    StepClock(patches, Host)
    try:
        wrapped = Host.noise_train_step
        t0 = clock()
        for _ in range(n):
            wrapped(None, (), 0.0)
        t_wrapped = clock() - t0
    finally:
        patches.restore()
    return max(0.0, (t_wrapped - t_bare) / n)


def run_dnce(name, seed, seconds, session):
    spec = DNCE[name]
    def setup():
        c = load_corpus(spec.shape)
        return c, *dnce_models(c, spec.shape, seed)

    with session:
        setup_times, (c, model, noise) = repeat(setup, SETUP_REPS[name])
        cfg = trainer_mod.DnceConfig(seed=seed, batch_size=100, **spec.config)
        step_clock = StepClock(session.patches)
        calls, ppl_times = [], []
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            ckpt = os.path.join(tmp, "checkpoint")
            # warm-up: one untimed step at a tenth of the minibatch, on the set-up model
            warm = trainer_mod.DnceConfig(seed=seed, batch_size=10, **spec.config)
            trainer_mod.train(
                warm, c.train, c.dev, model, noise, log_sink=io.StringIO(),
                checkpoint_path=ckpt, max_steps=1,
            )
            ppl_window(model, c.dev, PPL_REPS[name], ppl_times)
            for _ in range(max(1, round(seconds / spec.call_s))):
                model, noise = dnce_models(c, spec.shape, seed)
                sink = io.StringIO()
                gc.collect()
                step_clock.start()
                _, state = trainer_mod.train(
                    cfg, c.train, c.dev, model, noise, log_sink=sink,
                    checkpoint_path=ckpt, max_steps=spec.steps,
                )
                wall = clock() - step_clock.stamps[0]
                calls.append(
                    dict(
                        wall=wall,
                        tokens=step_clock.tokens,
                        steps=step_clock.step_times(),
                        dev_ll=state.dev_history[-1],
                        logged=sink.getvalue().splitlines()[-1].split("\t")[1],
                    )
                )
        ppl = ppl_window(model, c.dev, PPL_REPS[name], ppl_times)

    dev_ll = calls[0]["dev_ll"]
    n_tokens = sum(len(s) for s in c.dev)
    params = [model.lam, model.zeta, *model.phi_params.values(), *noise.params.values()]
    checks = {
        "steps_per_call": all(len(k["steps"]) == spec.steps for k in calls),
        "dev_ll_repeats": all(k["dev_ll"] == dev_ll for k in calls),
        "dev_ll_logged": all(k["logged"] == "%.6f" % k["dev_ll"] for k in calls),
        "dev_ll_in_range": in_reference_range(name, dev_ll),
        "params_finite": all(bool(np.isfinite(p).all()) for p in params),
        "ppl_matches_dev_ll": math.isclose(
            -math.log(ppl) * n_tokens / len(c.dev), dev_ll, rel_tol=1e-9
        ),
    }
    steps = [t for k in calls for t in k["steps"]]
    return Outcome(
        setup_times=setup_times,
        op_times=steps,
        tokens_per_s=statistics.median(k["tokens"] / k["wall"] for k in calls),
        ppl_times=ppl_times,
        n_dev=len(c.dev),
        dev_ll=dev_ll,
        attempted=len(steps),
        failed=0,
        checks=checks,
        details={
            "train_calls": len(calls),
            "steps": len(steps),
            "step_s": [round(t, 4) for t in steps],
            "stamp_cost_s": stamp_cost_s(),
        },
    )


def in_reference_range(name, dev_ll):
    mean, sd = DEV_LL_REF[name]
    return abs(dev_ll - mean) <= DEV_LL_SDS * sd


def seeded_paper_model(c: Corpus, seed):
    """A paper-shape mixed model with seeded parameter values."""
    rng = np.random.default_rng(seed)
    lam = rng.normal(0.0, 0.05, c.index.n_features)
    phi = neural.init_phi_params(c.vocab.size, PAPER.dim, seed=seed)
    return new_model(c, PAPER, lam, phi)


def make_nbest(vocab, n_utts, seed):
    """Seeded N-best lists from dev sentences by word substitution, insertion
    and deletion. Hypotheses are never filtered by length: one whose length
    has zero prior probability makes its utterance fail."""
    rng = np.random.default_rng([seed, 1])
    with open(DATA / "dev.txt", encoding="utf-8") as fh:
        refs = [line.split() for line in fh if line.split()]
    lists = []
    for u in range(n_utts):
        ref = refs[rng.integers(len(refs))]
        hyps = []
        for h in range(int(rng.integers(HYPS_PER_UTT[0], HYPS_PER_UTT[1] + 1))):
            tokens = list(ref)
            edits = 0 if h == 0 else int(rng.integers(1, MAX_EDITS + 1))
            for _ in range(edits):
                op = int(rng.integers(3))
                word = vocab.words[int(rng.integers(1, vocab.size))]
                pos = int(rng.integers(len(tokens) + (op == 1)))
                if op == 0:
                    tokens[pos] = word
                elif op == 1:
                    tokens.insert(pos, word)
                else:
                    del tokens[pos]
            hyps.append((float(-2.0 * edits + rng.normal(0.0, 2.0)), tokens))
        hyps.sort(key=lambda h: -h[0])
        lists.append(eval_mod.NBestList("utt%05d" % u, hyps))
    return lists


def log_probs_in_chunks(model, sentences, chunk=250):
    return np.concatenate(
        [model.log_prob_batch(sentences[i : i + chunk]) for i in range(0, len(sentences), chunk)]
    )


def run_score(name, seed, seconds, session):
    def setup():
        # what `trflm ppl` and `trflm rescore` do before scoring
        model = model_mod.TrfModel.load(path)
        return model, corpus_mod.read_corpus(DATA / "dev.txt", model.vocab)

    with session, tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = os.path.join(tmp, "model.trf")
        seeded_paper_model(load_corpus(PAPER), seed).save(path)
        setup_times, (model, dev) = repeat(setup, SETUP_REPS[name])
        lists = make_nbest(model.vocab, max(MIN_UTTS, round(seconds / UTT_S)), seed)
        scorers = eval_mod.ScorerSet.equal_weights([eval_mod.model_scorer(model)])
        ppl_times = []
        ppl_window(model, dev, PPL_REPS[name], ppl_times)

        for nb in lists[:10]:  # warm-up, untimed
            try:
                eval_mod.rescore_corpus([nb], scorers, lm_weight=LM_WEIGHT)
            except CorpusError:
                pass
        gc.collect()
        picks, failed, utt_times = {}, [], []
        for i, nb in enumerate(lists):
            t0 = clock()
            try:
                selections, _ = eval_mod.rescore_corpus([nb], scorers, lm_weight=LM_WEIGHT)
            except CorpusError:
                failed.append(i)
            else:
                picks[i] = selections[0]
            utt_times.append(clock() - t0)
        ppl = ppl_window(model, dev, PPL_REPS[name], ppl_times)

    ok_times = [t for i, t in enumerate(utt_times) if i in picks]
    ok_tokens = sum(len(tok) for i in picks for _, tok in lists[i].hypotheses)
    n_tokens = sum(len(s) for s in dev)
    dev_ll = -math.log(ppl) * n_tokens / len(dev)
    checks = score_checks(model, dev, lists, picks, failed, ppl)
    return Outcome(
        setup_times=setup_times,
        op_times=ok_times,
        tokens_per_s=ok_tokens / sum(utt_times),
        ppl_times=ppl_times,
        n_dev=len(dev),
        dev_ll=dev_ll,
        attempted=len(lists),
        failed=len(failed),
        checks=checks,
        details={
            "utterances": len(lists),
            "utts_failed": len(failed),
            "error_rate": len(failed) / len(lists),
            "hyps_ok": sum(len(lists[i].hypotheses) for i in picks),
            "rescore_hyps_per_s": sum(len(lists[i].hypotheses) for i in picks) / sum(utt_times),
            "rescore_utt_ms.p50": 1000 * float(np.percentile(ok_times, 50)),
            "rescore_utt_ms.p95": 1000 * float(np.percentile(ok_times, 95)),
            "latency_samples": len(ok_times),
        },
    )


def score_checks(model, dev, lists, picks, failed, ppl):
    """Re-derive picks, failures and perplexity from TrfModel.log_prob_batch."""
    zero_prior = [
        i
        for i, nb in enumerate(lists)
        if any(model.prior.prob(len(t)) <= 0 for _, t in nb.hypotheses)
    ]
    ids = model.vocab.ids
    unk = model.vocab.unk_id
    order = sorted(picks)
    encoded = [
        tuple(ids.get(w, unk) for w in tokens) for i in order for _, tokens in lists[i].hypotheses
    ]
    lp = log_probs_in_chunks(model, encoded) if encoded else np.zeros(0)
    picks_ok = True
    pos = 0
    for i in order:
        aux = np.array([a for a, _ in lists[i].hypotheses])
        combined = aux + LM_WEIGHT * lp[pos : pos + len(aux)]
        pos += len(aux)
        _, best, score, _ = picks[i]
        top = np.sort(combined)[::-1]
        clear = len(top) == 1 or top[0] - top[1] > 1e-8
        picks_ok &= math.isclose(score, combined[best], rel_tol=1e-9, abs_tol=1e-9)
        picks_ok &= (not clear) or best == int(np.argmax(combined))
    dev_lp = log_probs_in_chunks(model, dev)
    n_tokens = sum(len(s) for s in dev)
    return {
        "picks_rederived": bool(picks_ok),
        "failures_are_zero_prior_lengths": failed == zero_prior,
        "ppl_finite": math.isfinite(ppl),
        "ppl_matches_log_probs": math.isclose(
            ppl, math.exp(-float(dev_lp.sum()) / n_tokens), rel_tol=1e-9
        ),
        "some_utterances_ok": len(picks) > 0,
    }


class Session:
    """The span where a workload runs: sets up, measures, and (traced)
    records spans. Output checks run after it, untraced."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.patches = Patches()

    def __enter__(self):
        if self.tracer is not None:
            install_trace_points(self.tracer)
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        if self.tracer is not None:
            self.tracer.restore()


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def install_trace_points(tracer: Tracer):
    """Wrap each public function at the name its caller looks up.

    The trainer reaches noise, neural and features through module
    attributes (``noise_mod.sample``), the model reaches the container
    through its own globals, and ``model_scorer`` reaches ``encode``
    through the evaluation module's globals.
    """
    M = model_mod.TrfModel
    for owner, attr, name, count in [
        (corpus_mod, "build_vocab", "corpus.build_vocab", None),
        (corpus_mod, "read_corpus", "corpus.read_corpus", None),
        (corpus_mod, "length_prior", "corpus.length_prior", None),
        (corpus_mod.ClassMap, "load", "corpus.ClassMap.load", None),
        (corpus_mod, "encode", "corpus.encode", None),
        (eval_mod, "encode", "corpus.encode", None),
        (feats, "build_feature_index", "features.build_feature_index", None),
        (feats, "extract", "features.extract", None),
        (feats, "linear_potential", "features.linear_potential", None),
        (neural, "phi_forward_batch", "neural.phi_forward_batch",
         ("neural.phi_forward_sents", lambda a, k, r: len(a[0]))),
        (neural, "phi_backward_batch", "neural.phi_backward_batch", None),
        (noise_mod, "sample", "noise.sample",
         ("noise.sampled_tokens", lambda a, k, r: sum(len(s) for s in r))),
        (noise_mod, "seq_log_prob_batch", "noise.seq_log_prob_batch",
         ("noise.scored_sents", lambda a, k, r: len(a[1]))),
        (noise_mod, "noise_train_step", "noise.noise_train_step", None),
        (M, "log_weight_batch", "model.log_weight_batch", None),
        (M, "log_prob", "model.log_prob", None),
        (M, "log_prob_batch", "model.log_prob_batch", None),
        (model_mod, "write_container", "container.write_container", ("container.bytes", _file_size)),
        (model_mod, "read_container", "container.read_container", ("container.bytes", _file_size)),
        (trainer_mod, "train", "trainer.train", None),
        (trainer_mod, "grad_estimate", "trainer.grad_estimate", None),
        (trainer_mod.AdamState, "step", "trainer.AdamState.step", None),
        (trainer_mod, "dev_log_likelihood", "trainer.dev_log_likelihood", None),
        (eval_mod, "perplexity", "evaluation.perplexity", None),
        (eval_mod, "rescore_corpus", "evaluation.rescore_corpus", None),
    ]:
        tracer.patch(owner, attr, name, count)


PER_LAYER = {
    "noise.sample_s": "s",
    "noise.sampled_tokens": "count",
    "noise.score_s": "s",
    "noise.scored_sents": "count",
    "noise.train_step_s": "s",
    "neural.phi_forward_s": "s",
    "neural.phi_forward_sents": "count",
    "neural.phi_forward_calls": "count",
    "neural.phi_backward_s": "s",
    "features.extract_calls": "count",
    "features.extract_s": "s",
    "features.linear_potential_s": "s",
    "features.build_index_s": "s",
    "model.log_weight_batch_s": "s",
    "model.log_prob_calls": "count",
    "trainer.grad_estimate_s": "s",
    "trainer.grad_estimate_self_s": "s",
    "trainer.adam_s": "s",
    "trainer.dev_eval_s": "s",
    "trainer.train_self_s": "s",
    "evaluation.perplexity_s": "s",
    "evaluation.rescore_s": "s",
    "evaluation.rescore_self_s": "s",
    "evaluation.utts_failed": "count",
    "corpus.load_s": "s",
    "corpus.encode_calls": "count",
    "container.write_s": "s",
    "container.read_s": "s",
    "container.bytes": "count",
    "traced.op_ms.p50": "ms",
    "traced.tokens_per_s": "tok/s",
}


def layer_values(tracer: Tracer, outcome: Outcome):
    """Per-layer totals over the whole traced run."""
    rows = summarize(tracer.spans)

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(rows.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(name):
        return rows.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    return {
        "noise.sample_s": total("noise.sample"),
        "noise.sampled_tokens": counts["noise.sampled_tokens"],
        "noise.score_s": total("noise.seq_log_prob_batch"),
        "noise.scored_sents": counts["noise.scored_sents"],
        "noise.train_step_s": total("noise.noise_train_step"),
        "neural.phi_forward_s": total("neural.phi_forward_batch"),
        "neural.phi_forward_sents": counts["neural.phi_forward_sents"],
        "neural.phi_forward_calls": calls("neural.phi_forward_batch"),
        "neural.phi_backward_s": total("neural.phi_backward_batch"),
        "features.extract_calls": calls("features.extract"),
        "features.extract_s": total("features.extract"),
        "features.linear_potential_s": total("features.linear_potential"),
        "features.build_index_s": total("features.build_feature_index"),
        "model.log_weight_batch_s": total("model.log_weight_batch"),
        "model.log_prob_calls": calls("model.log_prob") + calls("model.log_prob_batch"),
        "trainer.grad_estimate_s": total("trainer.grad_estimate"),
        "trainer.grad_estimate_self_s": self_time("trainer.grad_estimate"),
        "trainer.adam_s": total("trainer.AdamState.step"),
        "trainer.dev_eval_s": total("trainer.dev_log_likelihood"),
        "trainer.train_self_s": self_time("trainer.train"),
        "evaluation.perplexity_s": total("evaluation.perplexity"),
        "evaluation.rescore_s": total("evaluation.rescore_corpus"),
        "evaluation.rescore_self_s": self_time("evaluation.rescore_corpus"),
        "evaluation.utts_failed": outcome.details.get("utts_failed", 0),
        "corpus.load_s": total(
            "corpus.build_vocab", "corpus.read_corpus", "corpus.length_prior", "corpus.ClassMap.load"
        ),
        "corpus.encode_calls": calls("corpus.encode"),
        "container.write_s": total("container.write_container"),
        "container.read_s": total("container.read_container"),
        "container.bytes": counts["container.bytes"],
        "traced.op_ms.p50": 1000 * statistics.median(outcome.op_times),
        "traced.tokens_per_s": outcome.tokens_per_s,
    }


def end_to_end_values(outcome: Outcome):
    return {
        "setup_s": statistics.median(outcome.setup_times),
        "op_ms.p50": 1000 * statistics.median(outcome.op_times),
        "tokens_per_s": outcome.tokens_per_s,
        "ppl_sents_per_s": outcome.n_dev / statistics.median(outcome.ppl_times),
        "dev_nll": -outcome.dev_ll,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it is not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    checks: dict
    details: dict
    trace: dict | None = None


def run(workload, seed, seconds, trace=False) -> Result:
    """Run one workload; end-to-end metrics, or per-layer ones when traced."""
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    body = run_score if workload == "score" else run_dnce
    outcome = body(workload, seed, seconds, Session(tracer))
    if trace:
        values = layer_values(tracer, outcome)
        units = PER_LAYER
    else:
        values = end_to_end_values(outcome)
        units = END_TO_END
    return Result(
        correct=all(outcome.checks.values()),
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics={k: (values[k], units[k]) for k in units},
        checks=outcome.checks,
        details=outcome.details,
        trace=None if tracer is None else {"spans": tracer.spans, "summary": summarize(tracer.spans)},
    )
