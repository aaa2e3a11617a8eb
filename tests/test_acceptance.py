"""End-to-end acceptance suite.

One test per criterion, in order; each prints a single PASS/FAIL line with
its headline numbers (run pytest with -rA to see them for passing tests).
Tolerances are pinned in the asserts, not configurable.
"""

import copy
import io
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trflm import evaluation as ev
from trflm import corpus as corpus_mod
from trflm import features as feats
from trflm import neural, oracle
from trflm import noise as noise_mod
from trflm import trainer
from trflm.corpus import LengthPrior, Vocabulary
from trflm.model import TrfModel, zeta_init

import helpers

DATA = Path(__file__).resolve().parent.parent / "data"


def _report(name, ok, detail):
    print("%s\t%s\t%s" % ("PASS" if ok else "FAIL", name, detail))


def _vocab(V):
    return Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])


def _random_mixed(V, L, d, rng):
    pi = rng.random(L) + 0.1
    prior = LengthPrior(pi / pi.sum())
    space = oracle.EnumSpace(V, L)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    phi = {
        k: rng.uniform(-0.3, 0.3, v.shape)
        for k, v in neural.init_phi_params(V, d, seed=int(rng.integers(1 << 31))).items()
    }
    return TrfModel(
        _vocab(V), prior, zeta_init(V, L),
        feature_index=index, lam=rng.uniform(-0.5, 0.5, index.n_features),
        phi_params=phi,
    )


def test_criterion_01_exact_normalization():
    t0 = time.time()
    rng = np.random.default_rng(101)
    space = oracle.EnumSpace(3, 3)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        model = _random_mixed(3, 3, d, rng)
        zeta = oracle.exact_log_z(model, space)
        total = sum(oracle.exact_sentence_probs(model, space, zeta).values())
        worst = max(worst, abs(total - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report("criterion-1 exact normalization", ok,
            "worst |sum-1|=%.2e, %.1fs" % (worst, elapsed))
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_02_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(202)
    V, L, d = 3, 2, 2
    space = oracle.EnumSpace(V, L)

    # (a) phi gradient wrt theta
    phi = {
        k: rng.uniform(-0.4, 0.4, v.shape)
        for k, v in neural.init_phi_params(V, d, seed=7).items()
    }
    s = (1, 0)
    _, cache = neural.phi_forward_batch([s], phi)
    rel_phi = oracle.gradient_error(
        lambda: helpers.phi_forward(s, phi)[0],
        phi,
        neural.phi_backward_batch(cache, np.ones(1)),
        floor=1e-6,
    )

    # (b) noise NLL gradient wrt mu
    prior = LengthPrior(np.array([0.4, 0.6]))
    nm = noise_mod.init_noise_model(V, d, prior, seed=8)
    for k in nm.params:
        nm.params[k] = rng.uniform(-0.4, 0.4, nm.params[k].shape)
    batch = [(1,), (0, 2), (2, 2)]
    _, ngrads, _ = noise_mod.nll_and_grads(nm, batch)
    rel_noise = oracle.gradient_error(
        lambda: noise_mod.nll_and_grads(nm, batch)[0], nm.params, ngrads, floor=1e-6
    )

    # (c) exact DNCE objective gradient wrt (lambda, theta, zeta)
    model = _random_mixed(V, L, d, rng)
    data = [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(20)]
    data_probs = {k: c / len(data) for k, c in Counter(data).items()}
    rel_j = oracle.gradient_error(
        lambda: oracle.exact_dnce_objective(model, nm, data_probs, 0.5, 1.0, space),
        model.params(),
        oracle.exact_dnce_gradient(model, nm, data_probs, 0.5, 1.0, space),
        floor=1e-5,
    )

    elapsed = time.time() - t0
    ok = max(rel_phi, rel_noise, rel_j) < 1e-4 and elapsed < 60.0
    _report("criterion-2 gradient suite", ok,
            "phi=%.2e noise=%.2e dnce=%.2e, %.1fs" % (rel_phi, rel_noise, rel_j, elapsed))
    assert rel_phi < 1e-4
    assert rel_noise < 1e-4
    assert rel_j < 1e-4
    assert elapsed < 60.0


def test_criterion_03_dnce_fixed_point():
    V, L = 3, 2
    rng = np.random.default_rng(303)
    pi = np.array([0.4, 0.6])
    prior = LengthPrior(pi)
    space = oracle.EnumSpace(V, L)
    nm = noise_mod.init_noise_model(V, 3, prior, seed=5)
    for k in nm.params:
        nm.params[k] = rng.uniform(-0.5, 0.5, nm.params[k].shape)
    pn = oracle.noise_sentence_probs(nm, space)
    data_probs = {}
    for l in (1, 2):
        group = list(space.sentences_of_length(l))
        w = rng.random(len(group))
        w /= w.sum()
        for s, ws in zip(group, w):
            data_probs[s] = pi[l - 1] * ws
    alpha, nu = 0.5, 1.0
    q = {s: alpha * data_probs[s] + (1 - alpha) * pn[s] for s in pn}

    # full unigram + bigram features represent q exactly with zeta = 0
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    lam = np.zeros(index.n_features)
    uni = {a: helpers.feature_id(index, 0, (a,)) for a in range(V)}
    for a in range(V):
        lam[uni[a]] = math.log(q[(a,)]) - math.log(pi[0])
    for a in range(V):
        for b in range(V):
            lam[helpers.feature_id(index, 1, (a, b))] = (
                math.log(q[(a, b)]) - math.log(pi[1]) - lam[uni[a]] - lam[uni[b]]
            )
    model = TrfModel(_vocab(V), prior, np.zeros(L), feature_index=index, lam=lam)
    grads = oracle.exact_dnce_gradient(model, nm, data_probs, alpha, nu, space)
    norm = max(np.abs(grads["lam"]).max(), np.abs(grads["zeta"]).max())
    ok = norm < 1e-8
    _report("criterion-3 dnce fixed point", ok, "grad max-norm=%.2e" % norm)
    assert norm < 1e-8


def _planted_setup():
    V, L = 5, 4
    rng = np.random.default_rng(42)
    space = oracle.EnumSpace(V, L)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    prior = LengthPrior(np.array([0.15, 0.25, 0.35, 0.25]))
    lam_true = np.random.default_rng(7).uniform(-0.3, 0.3, index.n_features)
    planted = TrfModel(_vocab(V), prior, zeta_init(V, L), feature_index=index, lam=lam_true)
    planted.zeta = oracle.exact_log_z(planted, space)
    probs = oracle.exact_sentence_probs(planted, space)
    sents = list(probs)
    p = np.array([probs[s] for s in sents])
    corpus = [sents[i] for i in rng.choice(len(sents), size=3000, p=p / p.sum())]
    return space, index, corpus


def test_criterion_04_planted_model_recovery():
    t0 = time.time()
    V, L = 5, 4
    space, index, corpus = _planted_setup()
    emp = helpers.empirical_expectations(corpus, index)
    emp_pi = np.bincount([len(s) for s in corpus], minlength=L + 1)[1:] / len(corpus)
    prior = LengthPrior(emp_pi)

    # fit the noise LM to the sample first; DNCE keeps adapting it per step
    nm = noise_mod.init_noise_model(V, 16, prior, seed=3)
    rng = np.random.default_rng(9)
    lr = 1.0
    for ep in range(300):
        order = rng.permutation(len(corpus))
        for i in range(0, len(corpus), 100):
            noise_mod.noise_train_step(nm, [corpus[j] for j in order[i : i + 100]], lr)
        if (ep + 1) % 75 == 0:
            lr *= 0.5

    model = TrfModel(
        _vocab(V), prior, zeta_init(V, L),
        feature_index=index, lam=np.zeros(index.n_features),
    )
    cfg = trainer.DnceConfig(
        alpha=0.95, nu=4.0, batch_size=100, lr_lambda=0.03, lr_zeta=0.01,
        lr_noise=0.05, stop_ratio=1e-12, max_epochs=10000, seed=11,
        schedule="per-epoch-halving", halve_every=20, average_tail=1500,
    )
    trainer.train(cfg, corpus, corpus[:200], model, nm, max_steps=2000)

    zeta_star = oracle.exact_log_z(model, space)
    zeta_err = float(np.abs(model.zeta - zeta_star).max())
    normed = TrfModel(
        model.vocab, model.prior, zeta_star, feature_index=index, lam=model.lam
    )
    got = oracle.exact_expectations(normed, space, index)
    rel = np.abs(got - emp) / emp
    elapsed = time.time() - t0
    ok = rel.max() < 0.02 and zeta_err < 0.05 and elapsed < 300.0
    _report("criterion-4 planted recovery", ok,
            "max rel=%.4f mean=%.4f zeta err=%.4f, %.0fs" %
            (rel.max(), rel.mean(), zeta_err, elapsed))
    assert rel.max() < 0.02
    assert zeta_err < 0.05
    assert elapsed < 300.0


def test_criterion_05_noise_adaptation():
    rng = np.random.default_rng(505)
    V, L = 6, 5
    # structured corpus: even words follow even, odd follow odd
    corpus = []
    for _ in range(300):
        l = int(rng.integers(2, L + 1))
        parity = int(rng.integers(2))
        corpus.append(tuple(int(2 * rng.integers(V // 2) + parity) for _ in range(l)))
    held = corpus[:60]
    data = corpus[60:]
    prior = corpus_mod.length_prior(data, L)
    nm = noise_mod.init_noise_model(V, 8, prior, seed=6)
    before = noise_mod.nll_and_grads(nm, held)[0]
    for _ in range(5):
        order = rng.permutation(len(data))
        for i in range(0, len(data), 50):
            noise_mod.noise_train_step(nm, [data[j] for j in order[i : i + 50]], 0.5)
    after = noise_mod.nll_and_grads(nm, held)[0]
    ok = after < before
    _report("criterion-5 noise adaptation", ok,
            "held-out NLL %.4f -> %.4f" % (before, after))
    assert after < before


def _bundled_setup():
    lines = open(DATA / "train.txt", encoding="utf-8").readlines()
    vocab = corpus_mod.build_vocab(lines, 2000)
    train_sents = corpus_mod.read_corpus(DATA / "train.txt", vocab, max_length=60)
    L = max(len(s) for s in train_sents)
    prior = corpus_mod.length_prior(train_sents, L)
    dev_sents = [
        s for s in corpus_mod.read_corpus(DATA / "dev.txt", vocab, max_length=L)
        if prior.prob(len(s)) > 0
    ]
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(train_sents, tset, "02")
    return vocab, prior, L, index, train_sents, dev_sents


def _train_mode(mode, setup, max_epochs=5):
    vocab, prior, L, index, train_sents, dev_sents = setup
    lam = np.zeros(index.n_features) if mode != "neural" else None
    fi = index if mode != "neural" else None
    phi = neural.init_phi_params(vocab.size, 16, seed=1) if mode != "discrete" else None
    model = TrfModel(vocab, prior, zeta_init(vocab.size, L),
                     feature_index=fi, lam=lam, phi_params=phi)
    nm = noise_mod.init_noise_model(vocab.size, 16, prior, seed=2)
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=0.5, batch_size=100, lr_lambda=0.01, lr_theta=0.01,
        lr_zeta=0.01, lr_noise=0.5, max_epochs=max_epochs, seed=5,
        schedule="per-epoch-halving", halve_every=1, stop_ratio=1e-9,
    )
    sink = io.StringIO()
    trainer.train(cfg, train_sents, dev_sents, model, nm, log_sink=sink)
    devs = [float(line.split("\t")[1]) for line in sink.getvalue().splitlines()]
    return devs


@pytest.fixture(scope="module")
def bundled_runs():
    setup = _bundled_setup()
    return {mode: _train_mode(mode, setup) for mode in ("discrete", "neural", "mixed")}


def test_criterion_06_convergence_speed_trend(bundled_runs):
    neural_devs = bundled_runs["neural"]
    mixed_devs = bundled_runs["mixed"]
    threshold = max(neural_devs)

    def epochs_to(devs):
        for i, v in enumerate(devs, 1):
            if v >= threshold:
                return i
        return math.inf

    e_neural = epochs_to(neural_devs)
    e_mixed = epochs_to(mixed_devs)
    ok = e_mixed <= e_neural
    _report("criterion-6 convergence speed", ok,
            "epochs to dev ll %.4f: mixed=%s neural=%s" % (threshold, e_mixed, e_neural))
    assert e_mixed <= e_neural


def test_criterion_07_integration_benefit_trend(bundled_runs):
    finals = {m: devs[-1] for m, devs in bundled_runs.items()}
    ok = finals["mixed"] >= finals["discrete"] and finals["mixed"] >= finals["neural"]
    _report("criterion-7 integration benefit", ok,
            "final dev ll: mixed=%.4f discrete=%.4f neural=%.4f" %
            (finals["mixed"], finals["discrete"], finals["neural"]))
    assert finals["mixed"] >= finals["discrete"]
    assert finals["mixed"] >= finals["neural"]


def test_criterion_08_rescoring_pipeline():
    # hand-computed: combined = aux + lm_weight * score
    table = {
        ("a", "b"): -1.0, ("a", "c"): -0.5, ("a",): -4.0,
        ("x",): -2.0, ("y",): -1.0,
    }

    class Fixed:
        def __call__(self, hypotheses):
            return [table[tuple(tokens)] for tokens in hypotheses]

    lists = [
        ev.NBestList("u1", [(0.8, ["a", "b"]), (0.1, ["a", "c"]), (3.0, ["a"])]),
        ev.NBestList("u2", [(0.0, ["x"]), (0.5, ["y"])]),
    ]
    # with lm_weight 2: u1 -> (-1.2, -0.9, -5.0) pick "a c"; u2 -> (-4.0, -1.5) pick "y"
    refs = {"u1": ["a", "b"], "u2": ["y"]}
    scorer = ev.ScorerSet([Fixed()], [1.0])
    selections, report = ev.rescore_corpus(lists, scorer, lm_weight=2.0, refs=refs)
    picks = [s[1] for s in selections]
    # WER: "a c" vs "a b" = 1 error / 2; "y" vs "y" = 0 / 1 -> 1/3
    errors, ref_len, rate = report
    interp = ev.ScorerSet.equal_weights([Fixed(), Fixed()])
    selections2, _ = ev.rescore_corpus(lists, interp, lm_weight=2.0, refs=refs)
    ok = (
        picks == [1, 1]
        and (errors, ref_len) == (1, 3)
        and rate == pytest.approx(1 / 3)
        and [s[1] for s in selections2] == picks
    )
    _report("criterion-8 rescoring pipeline", ok,
            "picks=%s wer=%d/%d" % (picks, errors, ref_len))
    assert picks == [1, 1]
    assert (errors, ref_len) == (1, 3)
    assert rate == pytest.approx(1 / 3)
    assert [s[1] for s in selections2] == picks


def test_criterion_09_minibatch_arithmetic():
    got_a = trainer.minibatch_sizes(0.25, 1.0, 100)
    got_b = trainer.minibatch_sizes(2 / 3, 4.0, 100)
    ok = got_a == (300, 400) and got_b == (50, 600)
    _report("criterion-9 minibatch arithmetic", ok, "%s %s" % (got_a, got_b))
    assert got_a == (300, 400)
    assert got_b == (50, 600)


def test_criterion_10_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(1010)
    V, L = 4, 3
    data = [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(60)]
    prior = corpus_mod.length_prior(data, L)
    space = oracle.EnumSpace(V, L)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")

    def fresh():
        model = TrfModel(
            _vocab(V), prior, zeta_init(V, L),
            feature_index=index, lam=np.zeros(index.n_features),
            phi_params=neural.init_phi_params(V, 2, seed=1),
        )
        return model, noise_mod.init_noise_model(V, 3, prior, seed=2)

    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, lr_noise=0.3, max_epochs=4,
        seed=77, schedule="per-epoch-halving", halve_every=2,
    )

    # same seed twice: bit-identical
    m1, n1 = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m1, n1)
    m2, n2 = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m2, n2)
    same_seed = (
        (m1.lam == m2.lam).all()
        and (m1.zeta == m2.zeta).all()
        and all((m1.phi_params[k] == m2.phi_params[k]).all() for k in m1.phi_params)
    )

    # save/load round trip: bit-identical scores
    path = tmp_path / "model.trf"
    m1.save(path)
    loaded = TrfModel.load(path)
    probe = [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(50)]
    roundtrip = all(loaded.log_prob(s) == m1.log_prob(s) for s in probe)

    # resume after interrupt matches the uninterrupted run
    ckpt = tmp_path / "ckpt.pkl"
    m3, n3 = fresh()
    half = copy.deepcopy(cfg)
    half.max_epochs = 2
    trainer.train(half, data, data[:10], m3, n3, checkpoint_path=ckpt)
    trainer.train(copy.deepcopy(cfg), data, data[:10], m3, n3,
                  checkpoint_path=ckpt, resume=True)
    resumed = (
        (m3.lam == m1.lam).all()
        and (m3.zeta == m1.zeta).all()
        and all((n3.params[k] == n1.params[k]).all() for k in n1.params)
    )

    ok = same_seed and roundtrip and resumed
    _report("criterion-10 determinism & persistence", ok,
            "same-seed=%s roundtrip=%s resume=%s" % (same_seed, roundtrip, resumed))
    assert same_seed
    assert roundtrip
    assert resumed
