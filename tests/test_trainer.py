import copy
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import features as feats
from trflm import model as model_mod
from trflm import noise as noise_mod
from trflm import neural, oracle, trainer
from trflm.corpus import ClassMap, CorpusError, LengthPrior, Vocabulary, length_prior
from trflm.container import read_container, write_container
from trflm.model import TrfModel, zeta_init

import helpers


def _vocab(V):
    return Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])


def _discrete_model(V, L, prior, seed=0, lam_scale=0.0):
    rng = np.random.default_rng(seed)
    space = oracle.EnumSpace(V, L)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    lam = rng.uniform(-lam_scale, lam_scale, index.n_features) if lam_scale else np.zeros(index.n_features)
    return TrfModel(_vocab(V), prior, zeta_init(V, L), feature_index=index, lam=lam)


def test_minibatch_sizes_paper_settings():
    assert trainer.minibatch_sizes(0.25, 1.0, 100) == (300, 400)
    assert trainer.minibatch_sizes(2 / 3, 4.0, 100) == (50, 600)
    assert trainer.minibatch_sizes(0.5, 1.0, 2) == (2, 4)


def test_minibatch_sizes_minimum_one():
    b1, b2 = trainer.minibatch_sizes(0.99, 0.001, 1)
    assert b1 >= 1 and b2 >= 1


def test_posterior_equal_scores():
    assert trainer.posterior_c0(-3.0, -3.0, 1.0) == pytest.approx(0.5)
    assert trainer.posterior_c0(-3.0, -3.0, 4.0) == pytest.approx(0.2)


def test_posterior_log_ratio():
    assert trainer.posterior_c0(math.log(3.0), 0.0, 1.0) == pytest.approx(0.75)


def test_posterior_extreme_saturation():
    assert trainer.posterior_c0(800.0, 0.0, 1.0) == 1.0
    assert trainer.posterior_c0(-800.0, 0.0, 1.0) == pytest.approx(0.0)
    assert trainer.posterior_c0(700.0, 0.0, 1.0) + trainer.posterior_c0(-700.0, 0.0, 1.0) == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(trainer.TrainerError):
        trainer.DnceConfig(alpha=1.5)
    with pytest.raises(trainer.TrainerError):
        trainer.DnceConfig(nu=-1.0)
    with pytest.raises(trainer.TrainerError):
        trainer.DnceConfig(schedule="bogus")
    with pytest.raises(trainer.TrainerError, match="halve_every must be >= 1"):
        trainer.DnceConfig(halve_every=0)


def test_config_caps_noise_draws_per_data_sentence():
    # (1 - alpha + nu) / alpha noise sentences per data sentence: 100 is allowed
    trainer.DnceConfig(alpha=0.01, nu=0.01)
    trainer.DnceConfig(alpha=0.5, nu=49.5)
    for alpha, nu in [(0.01, 0.02), (0.5, 49.6), (1e-9, 1e9)]:
        with pytest.raises(trainer.TrainerError, match="noise draws per data sentence"):
            trainer.DnceConfig(alpha=alpha, nu=nu)


def _tiny_setup(seed=0):
    V, L = 3, 3
    prior = LengthPrior(np.array([0.3, 0.4, 0.3]))
    model = _discrete_model(V, L, prior, seed=seed, lam_scale=0.2)
    noise = noise_mod.init_noise_model(V, 3, prior, seed=seed)
    return model, noise


def test_grad_estimate_zeta_direction():
    model, noise = _tiny_setup()
    D = [(1, 2)]
    log_p_d = noise_mod.seq_log_prob_batch(noise, D)
    grads = trainer.grad_estimate(model, D, [], [], log_p_d, 0.5, 1.0)
    # a length-2 sentence only touches zeta_2, and the component is -delta
    assert grads["zeta"][0] == 0.0
    assert grads["zeta"][2] == 0.0
    assert grads["zeta"][1] < 0.0


def test_grad_estimate_zeta_only_lengths_present():
    model, noise = _tiny_setup()
    D = [(1,), (0, 1)]
    B2 = [(2, 2)]
    log_p = noise_mod.seq_log_prob_batch(noise, D + B2)
    grads = trainer.grad_estimate(model, D, [], B2, log_p, 0.5, 1.0)
    assert grads["zeta"][2] == 0.0  # no length-3 sentences in the batch


def test_grad_estimate_extreme_posteriors_zero_bundle():
    model, noise = _tiny_setup()
    # make the model score astronomically high: P(C=1) ~ 0 on D u B1,
    # P(C=0) ~ 1 on B2 -- wrong direction; flip for the zero case
    model.lam[:] = 60.0
    D = [(1, 2)]
    log_p_d = noise_mod.seq_log_prob_batch(noise, D)
    grads = trainer.grad_estimate(model, D, [], [], log_p_d, 0.5, 1.0)
    assert np.abs(grads["lam"]).max() == pytest.approx(0.0, abs=1e-12)
    assert np.abs(grads["zeta"]).max() == pytest.approx(0.0, abs=1e-12)


def test_grad_estimate_matches_exact_enumeration_in_expectation():
    # with B1/B2 drawn by exact enumeration weights, the estimator's
    # expectation equals the exact gradient; here we check the exact
    # gradient itself vanishes at p_m = q (the estimator fixed point)
    V, L = 3, 2
    rng = np.random.default_rng(3)
    pi = np.array([0.4, 0.6])
    prior = LengthPrior(pi)
    space = oracle.EnumSpace(V, L)
    noise = noise_mod.init_noise_model(V, 3, prior, seed=5)
    for k in noise.params:
        noise.params[k] = rng.uniform(-0.5, 0.5, noise.params[k].shape)
    pn = oracle.noise_sentence_probs(noise, space)
    data_probs = {}
    for l in (1, 2):
        sents = list(space.sentences_of_length(l))
        w = rng.random(len(sents))
        w /= w.sum()
        for s, ws in zip(sents, w):
            data_probs[s] = pi[l - 1] * ws
    alpha, nu = 0.5, 1.0
    q = {s: alpha * data_probs[s] + (1 - alpha) * pn[s] for s in pn}

    tset = feats.compile_templates("w:2")
    corpus_all = list(helpers.all_sentences(space))
    index = feats.build_feature_index(corpus_all, tset, "00")
    lam = np.zeros(index.n_features)
    uni = {a: helpers.feature_id(index, 0, (a,)) for a in range(V)}
    for a in range(V):
        lam[uni[a]] = math.log(q[(a,)]) - math.log(pi[0])
    for a in range(V):
        for b in range(V):
            fid = helpers.feature_id(index, 1, (a, b))
            lam[fid] = (
                math.log(q[(a, b)]) - math.log(pi[1]) - lam[uni[a]] - lam[uni[b]]
            )
    model = TrfModel(_vocab(V), prior, np.zeros(L), feature_index=index, lam=lam)
    grads = oracle.exact_dnce_gradient(model, noise, data_probs, alpha, nu, space)
    assert set(grads) == {"zeta", "lam"}
    assert np.abs(grads["lam"]).max() < 1e-8
    assert np.abs(grads["zeta"]).max() < 1e-8


def _two_pass_grad_estimate(model, noise, D, B1, B2, alpha, nu):
    """The DNCE gradient as computed before the one-pass step, kept as a
    reference: per-sentence features extracted twice, the potential's
    recurrent pass run twice, every sentence rescored by the noise LM, and
    a scalar posterior per sentence."""
    mixture = list(D) + list(B1)
    sents = mixture + list(B2)
    lengths = np.array([len(s) for s in sents], dtype=np.int64)
    lin = np.array([feats.linear_potential(s, model.feature_index, model.lam) for s in sents])
    phis, _ = neural.phi_forward_batch(sents, model.phi_params)
    score_m = lin + phis - model.zeta[lengths - 1]
    log_ar = noise_mod.seq_log_prob_batch(noise, sents)
    scale = alpha / len(D)
    weights = np.empty(len(sents))
    for j in range(len(sents)):
        delta = score_m[j] - log_ar[j] - math.log(nu)
        if delta >= 0:
            p0 = 1.0 / (1.0 + math.exp(-delta))
        else:
            p0 = math.exp(delta) / (1.0 + math.exp(delta))
        weights[j] = scale * (1.0 - p0) if j < len(mixture) else -scale * p0
    g_lambda = np.zeros(model.feature_index.n_features)
    for j, s in enumerate(sents):
        for fid, c in helpers.extract_pairs(s, model.feature_index):
            g_lambda[fid] += weights[j] * c
    _, cache = neural.phi_forward_batch(sents, model.phi_params)
    g_theta = neural.phi_backward_batch(cache, weights)
    g_zeta = np.zeros(model.max_length)
    np.subtract.at(g_zeta, lengths - 1, weights)
    return model.named(g_zeta, g_lambda, g_theta)


def test_grad_estimate_matches_two_pass_reference():
    rng = np.random.default_rng(21)
    V, L, d = 30, 8, 6
    class_map = ClassMap(rng.integers(0, 5, size=V), 5)
    corpus = _small_corpus(rng, V, L, 200)
    tset = feats.compile_templates("w+c+ws+cs:3", class_map_present=True)
    index = feats.build_feature_index(corpus, tset, "011", class_map=class_map)
    prior = length_prior(corpus, L)
    model = TrfModel(
        _vocab(V), prior, zeta_init(V, L) + rng.normal(0.0, 2.0, L), feature_index=index,
        lam=rng.normal(0.0, 0.3, index.n_features), phi_params=neural.init_phi_params(V, d, seed=4),
        class_map=class_map, template_spec="w+c+ws+cs:3",
    )
    noise = noise_mod.init_noise_model(V, d, prior, seed=5)
    D = corpus[:20]
    drawn, log_p = noise_mod.sample(noise, 50, np.random.default_rng(6))
    B1, B2 = drawn[:20], drawn[20:]
    log_p_d = noise_mod.seq_log_prob_batch(noise, D)
    got = trainer.grad_estimate(model, D, B1, B2, np.concatenate([log_p_d, log_p]), 0.4, 1.5)
    want = _two_pass_grad_estimate(model, noise, D, B1, B2, 0.4, 1.5)
    assert got.keys() == want.keys()
    assert np.abs(got["lam"]).max() > 1e-3  # the check is not vacuous
    for k in want:
        np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-10, err_msg=k)


def test_grad_estimate_needs_one_log_prob_per_draw():
    model, noise = _tiny_setup()
    with pytest.raises(trainer.TrainerError):
        trainer.grad_estimate(model, [(1, 2)], [(0,)], [(2, 2)], np.zeros(2), 0.5, 1.0)


def _step_model(kind, rng, V, L, d, sents):
    index = feats.build_feature_index(sents, feats.compile_templates("w:2"), "00")
    return TrfModel(
        _vocab(V), LengthPrior(np.full(L, 1.0 / L)), zeta_init(V, L) + rng.normal(0.0, 1.0, L),
        feature_index=index if kind != "neural" else None,
        lam=rng.uniform(-1, 1, index.n_features) if kind != "neural" else None,
        phi_params=neural.init_phi_params(V, d, seed=1) if kind != "discrete" else None,
    )


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_chunked_grad_estimate_equals_whole_step_pass(data):
    kind = data.draw(st.sampled_from(["discrete", "neural", "mixed"]))
    V, L = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 7))
    d = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sents = helpers.shuffled_batch(rng, V, data.draw(st.lists(st.integers(1, L), min_size=1, max_size=30)))
    n_d = data.draw(st.integers(1, len(sents)))
    n_mix = data.draw(st.integers(n_d, len(sents)))
    model = _step_model(kind, rng, V, L, d, sents)
    step = (model, sents[:n_d], sents[n_d:n_mix], sents[n_mix:], rng.normal(-2.0, 2.0, len(sents)))
    want = helpers.whole_step_grad_estimate(*step, 0.4, 1.5)
    # a budget of 1..(all tokens + 3) real tokens per chunk
    total = sum(map(len, sents))
    budget = data.draw(st.integers(1, total + 3))
    per_token = 16 * (d if kind != "discrete" else 1)
    chunks = []
    potential_batch = model.potential_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "SCORE_FLOATS", budget * per_token)
        mp.setattr(model, "potential_batch", lambda b: chunks.append(b) or potential_batch(b))
        got = trainer.grad_estimate(*step, 0.4, 1.5)
    assert sorted(map(len, sum(chunks, []))) == sorted(map(len, sents))
    for chunk in chunks:
        assert len(chunk) == 1 or sum(map(len, chunk)) <= budget
    assert got.keys() == want.keys()
    for k in want:
        if len(chunks) == 1:
            assert got[k].tobytes() == want[k].tobytes(), k
        else:
            # an entry where the step's terms cancel carries the rounding of the
            # terms, not of the entry: measure it against the array's largest
            scale = np.abs(want[k]).max()
            np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-12 * scale, err_msg=k)


def test_grad_estimate_memory_does_not_grow_with_the_step(monkeypatch):
    V, L, d = 50, 12, 16
    rng = np.random.default_rng(7)
    small = helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=250))
    large = small + helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=750))
    model = _step_model("mixed", rng, V, L, d, large)
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", 200 * 16 * d)
    log_p = rng.normal(-20.0, 5.0, len(large))

    def step(sents):
        n = len(sents) // 10
        B1, B2 = sents[n : 5 * n], sents[5 * n :]
        return trainer.grad_estimate(model, sents[:n], B1, B2, log_p[: len(sents)], 0.2, 1.0)

    step(small)  # warm up lazily allocated state
    peaks = []
    for sents in (small, large):
        tracemalloc.start()
        try:
            step(sents)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_adam_zero_gradient_no_move():
    state = trainer.AdamState()
    p = np.array([1.0, -2.0])
    out = helpers.adam_step(p.copy(), np.zeros(2), 0.1, state)
    assert (out == p).all()
    assert state.t == 1


def test_adam_first_step_magnitude():
    state = trainer.AdamState()
    p = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    out = helpers.adam_step(p, g, 0.1, state)
    # bias-corrected first step moves ~lr in the gradient sign direction
    assert np.allclose(np.abs(out), 0.1, rtol=1e-4)
    assert np.sign(out).tolist() == np.sign(g).tolist()


def test_adam_converges_on_quadratic():
    # ascent on f(p) = -||p - target||^2
    target = np.array([2.0, -1.0])
    p = np.zeros(2)
    state = trainer.AdamState()
    d0 = np.linalg.norm(p - target)
    for _ in range(100):
        g = -2.0 * (p - target)
        p = helpers.adam_step(p, g, 0.1, state)
    assert np.linalg.norm(p - target) < d0


def _small_corpus(rng, V, L, n):
    return [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(n)]


def test_train_deterministic_given_seed():
    rng = np.random.default_rng(0)
    V, L = 3, 3
    data = _small_corpus(rng, V, L, 40)
    prior = length_prior(data, L)
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, lr_lambda=0.01, lr_zeta=0.01,
        lr_noise=0.3, max_epochs=2, seed=11, schedule="per-epoch-halving",
    )
    results = []
    for _ in range(2):
        model = _discrete_model(V, L, prior, seed=1)
        noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
        trainer.train(copy.deepcopy(cfg), data, data[:10], model, noise)
        results.append((model.lam.copy(), model.zeta.copy(),
                        {k: v.copy() for k, v in noise.params.items()}))
    assert (results[0][0] == results[1][0]).all()
    assert (results[0][1] == results[1][1]).all()
    for k in results[0][2]:
        assert (results[0][2][k] == results[1][2][k]).all()


@pytest.mark.parametrize("mode", ["discrete", "neural", "mixed"])
def test_train_matches_reference_step_order(mode):
    # the KL step first, returning D's noise scores, against scoring D in
    # the gradient and the KL step last: 7 steps over two epochs of 5
    rng = np.random.default_rng(17)
    V, L = 12, 5
    data = _small_corpus(rng, V, L, 45)
    prior = length_prior(data, L)
    index = feats.build_feature_index(data, feats.compile_templates("w:2"), "00")
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, lr_noise=0.3, max_epochs=3, seed=4,
        schedule="per-epoch-halving",
    )

    def fresh():
        discrete = {"feature_index": index, "lam": np.zeros(index.n_features)}
        neural_ = {"phi_params": neural.init_phi_params(V, 4, seed=3)}
        kwargs = {"discrete": discrete, "neural": neural_, "mixed": {**discrete, **neural_}}[mode]
        model = TrfModel(_vocab(V), prior, zeta_init(V, L), **kwargs)
        return model, noise_mod.init_noise_model(V, 4, prior, seed=2)

    model, noise = fresh()
    _, state = trainer.train(copy.deepcopy(cfg), data, data[:10], model, noise, max_steps=7)
    ref_model, ref_noise = fresh()
    history = helpers.reference_dnce_steps(cfg, data, data[:10], ref_model, ref_noise, 7)
    assert state.dev_history == history and len(history) == 2
    assert model.params().keys() == ref_model.params().keys()
    for k, v in ref_model.params().items():
        assert model.params()[k].tobytes() == v.tobytes(), k
    for k, v in ref_noise.params.items():
        assert noise.params[k].tobytes() == v.tobytes(), k


def test_train_epoch_step_count_and_log(tmp_path):
    import io

    rng = np.random.default_rng(5)
    V, L = 3, 2
    data = _small_corpus(rng, V, L, 23)
    prior = length_prior(data, L)
    model = _discrete_model(V, L, prior, seed=1)
    noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
    sink = io.StringIO()
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, max_epochs=2, seed=3,
        schedule="per-epoch-halving",
    )
    trainer.train(cfg, data, data[:5], model, noise, log_sink=sink)
    lines = [l for l in sink.getvalue().splitlines() if l]
    assert len(lines) == 2
    fields = lines[0].split("\t")
    assert fields[0] == "1"
    float(fields[1])  # dev ll parses


class _Interrupt(Exception):
    pass


class _InterruptAtEpoch:
    """Log sink that stops a run while it logs the given epoch, before
    that epoch's checkpoint is written: a crash with the full config."""

    def __init__(self, epoch):
        self.prefix = "%d\t" % epoch

    def write(self, line):
        if line.startswith(self.prefix):
            raise _Interrupt

    def flush(self):
        pass


def _resume_setup(average_tail):
    rng = np.random.default_rng(9)
    V, L = 3, 3
    data = _small_corpus(rng, V, L, 30)
    prior = length_prior(data, L)
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, lr_noise=0.3, max_epochs=4,
        seed=21, schedule="per-epoch-halving", halve_every=2, average_tail=average_tail,
    )

    def fresh():
        return (
            _discrete_model(V, L, prior, seed=1),
            noise_mod.init_noise_model(V, 3, prior, seed=2),
        )

    return data, cfg, fresh


@pytest.mark.parametrize("average_tail", [0, 9])
def test_train_resume_reproduces_uninterrupted(tmp_path, average_tail):
    # with average_tail=9 the averaging window (steps 4-12) straddles the
    # epoch-2 checkpoint (step 6)
    data, cfg, fresh = _resume_setup(average_tail)

    # uninterrupted run
    m_full, n_full = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m_full, n_full)

    # interrupted during epoch 3, then resumed from the epoch-2 checkpoint
    ckpt = tmp_path / "ckpt"
    m_half, n_half = fresh()
    with pytest.raises(_Interrupt):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], m_half, n_half,
            log_sink=_InterruptAtEpoch(3), checkpoint_path=ckpt,
        )
    cfg_rest = copy.deepcopy(cfg)
    trainer.train(
        cfg_rest, data, data[:10], m_half, n_half, checkpoint_path=ckpt, resume=True
    )
    assert (m_half.lam == m_full.lam).all()
    assert (m_half.zeta == m_full.zeta).all()
    for k in n_full.params:
        assert (n_half.params[k] == n_full.params[k]).all()


def _resume_an_epoch_end_checkpoint_edited(tmp_path, average_tail, edits):
    """Interrupt a run in epoch 3, check what its epoch-2 checkpoint holds, apply the manifest
    edits, and check that the resume matches the uninterrupted run bit for bit."""
    data, cfg, fresh = _resume_setup(average_tail)
    m_full, n_full = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m_full, n_full)
    ckpt = tmp_path / "ckpt"
    m_half, n_half = fresh()
    with pytest.raises(_Interrupt):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], m_half, n_half,
            log_sink=_InterruptAtEpoch(3), checkpoint_path=ckpt,
        )
    state = read_container(ckpt)[0]["state"]
    assert sorted(state) == ["dev_history", "epoch_rng_state", "steps"]
    assert state["steps"] == 6 and len(state["dev_history"]) == 2
    helpers.edit_manifest(ckpt, edits)
    trainer.train(
        copy.deepcopy(cfg), data, data[:10], m_half, n_half, checkpoint_path=ckpt, resume=True
    )
    for k, v in {**m_full.params(), **n_full.params}.items():
        assert {**m_half.params(), **n_half.params}[k].tobytes() == v.tobytes()


@pytest.mark.parametrize("average_tail", [0, 9])
def test_checkpoint_stores_the_dev_history_alone_and_resumes_files_that_hold_more(
    tmp_path, average_tail
):
    # of the run's progress per epoch a checkpoint stores the dev history alone, not the
    # epoch, the learning-rate factor or the best dev value derived from it; checkpoints
    # written before they were derived also hold state.epoch, state.lr_factor and
    # state.best_dev, and predate state.steps and state.epoch_rng_state
    _resume_an_epoch_end_checkpoint_edited(tmp_path, average_tail, {
        "state.steps": helpers.DELETE, "state.epoch_rng_state": helpers.DELETE,
        "state.epoch": 2, "state.lr_factor": 0.5, "state.best_dev": -1.0,
    })


@pytest.mark.parametrize("average_tail", [0, 9])
def test_checkpoint_stores_the_steps_and_resumes_epoch_end_files_without_them(
    tmp_path, average_tail
):
    # checkpoints written before a run could stop inside an epoch lack state.steps and
    # state.epoch_rng_state; they were all written at an epoch's end
    _resume_an_epoch_end_checkpoint_edited(tmp_path, average_tail, {
        "state.steps": helpers.DELETE, "state.epoch_rng_state": helpers.DELETE,
    })


def _same_checkpoints(path_a, path_b):
    """Whether two checkpoints hold the same manifest and bit-identical arrays: the
    parameters, the noise LM, Adam's moments and step count, the averaging sums, the
    generator states and the run's state."""
    (manifest_a, arrays_a), (manifest_b, arrays_b) = read_container(path_a), read_container(path_b)
    return manifest_a == manifest_b and [(k, v.tobytes()) for k, v in arrays_a.items()] == [
        (k, v.tobytes()) for k, v in arrays_b.items()
    ]


@pytest.mark.parametrize("k", range(1, 12))
def test_a_run_stopped_at_any_step_resumes_bit_identically(tmp_path, k):
    # 12 steps in 4 epochs of 3; a max_steps stop inside an epoch checkpoints there, and
    # the resume continues that epoch at its next step
    data, cfg, fresh = _resume_setup(0)
    full, ckpt = tmp_path / "full", tmp_path / "ckpt"
    _, state_full = trainer.train(
        copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=full
    )
    _, state = trainer.train(
        copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt, max_steps=k
    )
    assert state.steps == k and len(state.dev_history) == -(-k // 3)
    _, state = trainer.train(
        copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt, resume=True
    )
    assert state == state_full and state.steps == 12 and len(state.dev_history) == 4
    assert _same_checkpoints(ckpt, full)


def test_a_run_stopped_at_every_step_in_turn_resumes_bit_identically(tmp_path):
    data, cfg, fresh = _resume_setup(0)
    full, ckpt = tmp_path / "full", tmp_path / "ckpt"
    m_full, n_full = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m_full, n_full, checkpoint_path=full)
    model, noise = fresh()
    for k in range(1, 13):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], model, noise, checkpoint_path=ckpt,
            resume=k > 1, max_steps=k,
        )
    assert _same_checkpoints(ckpt, full)
    for k, v in {**m_full.params(), **n_full.params}.items():
        assert {**model.params(), **noise.params}[k].tobytes() == v.tobytes()


def test_train_resume_refuses_a_max_steps_stop_under_averaging(tmp_path):
    # the 4-step run averages its own last 9 steps (1-4); the 12-step run resumed from it
    # averages steps 4-12, so it would need the average of step 4 alone
    data, cfg, fresh = _resume_setup(9)
    ckpt = tmp_path / "ckpt"
    trainer.train(copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt, max_steps=4)
    with pytest.raises(
        trainer.TrainerError, match="'avg_n' holds the average of 4 steps; .* covers 1 of the 4"
    ):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt, resume=True
        )


def test_train_resume_refuses_changed_averaging_window(tmp_path):
    # a 2-epoch run averages its own last 9 steps (1-6); the 4-epoch run
    # resumed from it would need the average of steps 4-6
    data, cfg, fresh = _resume_setup(9)
    ckpt = tmp_path / "ckpt"
    model, noise = fresh()
    cfg_half = copy.deepcopy(cfg)
    cfg_half.max_epochs = 2
    trainer.train(cfg_half, data, data[:10], model, noise, checkpoint_path=ckpt)
    with pytest.raises(trainer.TrainerError, match="average of 6 steps"):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], model, noise, checkpoint_path=ckpt, resume=True
        )


def test_train_resume_refuses_changed_config(tmp_path):
    data, cfg, fresh = _resume_setup(0)
    ckpt = tmp_path / "ckpt"
    model, noise = fresh()
    cfg_half = copy.deepcopy(cfg)
    cfg_half.max_epochs = 2
    trainer.train(cfg_half, data, data[:10], model, noise, checkpoint_path=ckpt)
    changed = copy.deepcopy(cfg)
    changed.lr_theta = 0.01
    with pytest.raises(trainer.ResumeConfigError, match="lr_theta 0.003 -> 0.01"):
        trainer.train(changed, data, data[:10], model, noise, checkpoint_path=ckpt, resume=True)


def _lower_zeta(model):
    model.zeta -= 100.0  # log p(l, x) > 0 at every length


def _nan_lam(model):
    model.lam[0] = np.nan


@pytest.mark.parametrize(
    "damage, message",
    [
        (_lower_zeta,
         r"dev log-likelihood refused: a sentence of length \d has log p\(l, x\) = \d"),
        (_nan_lam, "not finite: lam$"),
    ],
    ids=["zeta-lowered", "lam-nan"],
)
def test_train_stops_at_the_dev_pass_of_a_diverged_epoch_keeping_the_last_checkpoint(
    tmp_path, damage, message
):
    data, cfg, fresh = _resume_setup(0)  # 3 steps an epoch
    model, noise = fresh()
    ckpt = tmp_path / "ckpt"

    def on_step(step, record):
        if step == 6:  # the last of epoch 2
            damage(model)

    with pytest.raises(trainer.TrainerError, match="training diverged in epoch 2: " + message):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], model, noise, checkpoint_path=ckpt,
            on_step=on_step,
        )
    assert len(read_container(ckpt)[0]["state"]["dev_history"]) == 1


@pytest.mark.parametrize(
    "average_tail, edits, named",
    [
        (0, {"state.dev_history": "x"}, "state.dev_history"),
        (0, {"adam_t": "x"}, "adam_t"),
        (0, {"avg_n": -1}, "avg_n"),
        (0, {"rng_state": {"bit_generator": "PCG64"}}, "rng_state"),
        (0, {"config": 5}, "config"),
        (0, {"model.zeta": None}, "model.zeta"),  # an array the file then lacks
        (0, {"model.lam": np.nan}, "model.lam"),
        # a 2-epoch run averages steps 1-6; the 4-epoch run resuming it averages steps 4-12
        (9, {}, "avg_n"),
        # 9 steps begin 3 epochs, and the file holds the dev values of 2
        (0, {"state.steps": 9}, "state.steps"),
        # step 5 lies inside epoch 2, whose permutation the file then cannot redraw
        (0, {"state.steps": 5, "state.epoch_rng_state": None}, "state.epoch_rng_state"),
    ],
    ids=["history-a-string", "adam-t-a-string", "avg-n-negative",
         "rng-state-without-its-state", "config-an-int", "an-array-missing", "an-array-nan",
         "averaging-window-moved", "steps-disagree-with-the-dev-history",
         "mid-epoch-without-the-epoch-rng-state"],
)
def test_refused_resume_leaves_model_noise_and_rng_as_they_were(
    tmp_path, average_tail, edits, named
):
    data, cfg, fresh = _resume_setup(average_tail)  # 4 epochs of 3 steps
    half = copy.deepcopy(cfg)
    half.max_epochs = 2
    ckpt = tmp_path / "ckpt"
    trainer.train(half, data, data[:10], *fresh(), checkpoint_path=ckpt)
    manifest, arrays = read_container(ckpt)
    in_manifest = {k: v for k, v in edits.items() if k not in arrays}
    for name in edits.keys() - in_manifest.keys():
        if edits[name] is None:
            del arrays[name]
        else:
            arrays[name].flat[0] = edits[name]
    write_container(ckpt, manifest, arrays)
    helpers.edit_manifest(ckpt, in_manifest)
    model, noise = fresh()
    rng = np.random.default_rng(5)
    before = [(k, v.tobytes()) for k, v in {**model.params(), **noise.params}.items()]
    rng_before = rng.bit_generator.state
    with pytest.raises(
        (model_mod.ModelError, trainer.TrainerError), match=re.escape(str(ckpt)) + ".*" + named
    ):  # this run averages the steps after 12 - average_tail
        trainer._restore(
            ckpt, cfg, model, noise, trainer.AdamState(), rng, len(data), 12 - average_tail
        )
    assert [(k, v.tobytes()) for k, v in {**model.params(), **noise.params}.items()] == before
    assert rng.bit_generator.state == rng_before


@pytest.mark.parametrize("damage", helpers.DAMAGES)
def test_checkpoint_holds_exactly_the_arrays_of_the_run(tmp_path, damage):
    # a 2-epoch run with average_tail=9 checkpoints averaging sums too
    data, cfg, fresh = _resume_setup(9)
    cfg.max_epochs = 2
    ckpt = tmp_path / "ckpt"
    trainer.train(copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt)
    seen = []
    for name in helpers.damage_each_array(ckpt, damage):
        seen.append(name)
        with pytest.raises(model_mod.ModelError) as exc:
            trainer.train(
                copy.deepcopy(cfg), data, data[:10], *fresh(), checkpoint_path=ckpt, resume=True
            )
        assert helpers.names_file_and_array(str(exc.value), ckpt, name), exc.value
    assert any(name.startswith("avg.") for name in seen)


def test_train_stops_when_lr_floor_reached():
    rng = np.random.default_rng(2)
    V, L = 3, 2
    data = _small_corpus(rng, V, L, 20)
    prior = length_prior(data, L)
    model = _discrete_model(V, L, prior, seed=1)
    noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
    cfg = trainer.DnceConfig(
        alpha=0.5, nu=1.0, batch_size=10, max_epochs=50, seed=3,
        schedule="per-epoch-halving", stop_ratio=0.1,
    )
    _, state = trainer.train(cfg, data, data[:5], model, noise)
    # factor halves each epoch: 1, .5, .25, .125, .0625 -> stops entering epoch 5
    assert state.steps == 8 and len(state.dev_history) == 4


@pytest.mark.parametrize(
    "schedule, history, factors",
    [
        # halved every halve_every = 2 epochs, whatever the dev values
        ("per-epoch-halving", [-9.0] * 5, [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]),
        # halved after -8.995 (0.056% above the best, -9) and -9.5 (below it), not after -8
        ("dev-halving", [-10.0, -9.0, -8.995, -9.5, -8.0], [1.0, 1.0, 1.0, 0.5, 0.25, 0.25]),
    ],
)
def test_lr_factor_replays_the_schedule_over_the_dev_history(schedule, history, factors):
    cfg = trainer.DnceConfig(schedule=schedule, halve_every=2, halving_threshold=0.001)
    assert [trainer.lr_factor(cfg, history[:e]) for e in range(len(history) + 1)] == factors


def test_average_tail_ends_at_the_lr_floor(monkeypatch):
    # the floor stops this 50-epoch run after 4 epochs, 8 steps; the average
    # is of the last 3 of those, not of steps 98-100, which never run
    rng = np.random.default_rng(2)
    V, L = 3, 2
    data = _small_corpus(rng, V, L, 20)
    prior = length_prior(data, L)
    iterates = []
    step = trainer.AdamState.step

    def recording_step(self, params, grads, lrs):
        step(self, params, grads, lrs)
        iterates.append(params["lam"].copy())

    monkeypatch.setattr(trainer.AdamState, "step", recording_step)
    lams = {}
    for tail in (0, 3):
        iterates.clear()
        model = _discrete_model(V, L, prior, seed=1)
        cfg = trainer.DnceConfig(
            alpha=0.5, nu=1.0, batch_size=10, max_epochs=50, seed=3,
            schedule="per-epoch-halving", stop_ratio=0.1, average_tail=tail,
        )
        noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
        _, state = trainer.train(cfg, data, data[:5], model, noise)
        assert len(state.dev_history) == 4 and len(iterates) == 8
        lams[tail] = model.lam
    assert (lams[0] == iterates[-1]).all()
    assert (lams[3] == (iterates[-3] + iterates[-2] + iterates[-1]) / 3).all()


def test_average_tail_refused_where_dev_scores_set_the_last_step():
    with pytest.raises(trainer.TrainerError, match="average_tail needs per-epoch-halving"):
        trainer.DnceConfig(average_tail=2)
    trainer.DnceConfig(average_tail=2, stop_ratio=0.0)
    trainer.DnceConfig(average_tail=2, schedule="per-epoch-halving")


def test_paper_default_config():
    cfg = trainer.DnceConfig()
    assert cfg.batch_size == 100
    assert (cfg.lr_lambda, cfg.lr_theta, cfg.lr_zeta, cfg.lr_noise) == (
        0.003, 0.003, 0.01, 1.0,
    )


# The noise phase draws B1 u B2 in blocks of chains and takes the KL step on
# D: every block, then the step; or the worker thread steps blocks while the
# caller takes the step and then steps the blocks that are left. The allowed
# CPUs, a BLAS whose thread count can be set and the size rule against
# model.SCORE_FLOATS pick the path.


def _force_noise_path(monkeypatch, concurrent):
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", math.inf if concurrent else 0)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    helpers.FakeBlas(1).install(monkeypatch)


class _NoiseSchedule:
    """Spies on the noise phases a test runs: the KL steps, as they return,
    and the draw's blocks, as they start, each with whether it ran on a
    thread other than the caller's. On the concurrent path each KL step
    first waits until the worker has begun a block of its phase's draw, so
    that the worker is seen to draw whatever the timing."""

    def __init__(self, monkeypatch, concurrent):
        self.concurrent = concurrent
        self.events = []
        caller, began = threading.current_thread(), threading.Event()
        sample, step = noise_mod.sample, noise_mod.noise_train_step
        step_block = noise_mod.Draw.step_block

        def sample_noted(*args, **kwargs):
            began.clear()  # before the phase's worker starts
            return sample(*args, **kwargs)

        def step_noted(*args, **kwargs):
            assert not concurrent or began.wait(timeout=30)
            out = step(*args, **kwargs)
            self.events.append(("step", threading.current_thread() is not caller))
            return out

        def block_noted(draw, *args):
            away = threading.current_thread() is not caller
            self.events.append(("block", away))
            if away:
                began.set()
            return step_block(draw, *args)

        monkeypatch.setattr(noise_mod, "sample", sample_noted)
        monkeypatch.setattr(noise_mod, "noise_train_step", step_noted)
        monkeypatch.setattr(noise_mod.Draw, "step_block", block_noted)

    def kept(self, phases):
        """Whether `phases` noise phases ran on the chosen path: serially,
        every block on the caller and then the step; concurrently, the
        worker steps blocks in each phase, and the caller steps blocks only
        after its KL step has returned."""
        here = "".join("S" if kind == "step" else "B" for kind, away in self.events if not away)
        there = [kind for kind, away in self.events if away]
        if not self.concurrent:
            return not there and re.fullmatch("(B+S){%d}" % phases, here) is not None
        return (
            set(there) == {"block"} and len(there) >= phases
            and re.fullmatch("(SB*){%d}" % phases, here) is not None
        )


def _noise_phase_on_path(monkeypatch, concurrent, V, d, lengths, alpha, nu, seed, R=None):
    """The noise phase's outputs as bytes, on one path with blocks of R
    chains (the default if None), and whether it ran on that path."""
    rng = np.random.default_rng(seed)
    D = helpers.shuffled_batch(rng, V, lengths)
    prior = length_prior(D, max(lengths))
    noise = noise_mod.init_noise_model(V, d, prior, seed=seed + 1)
    _force_noise_path(monkeypatch, concurrent)
    if R is not None:
        monkeypatch.setattr(noise_mod, "SAMPLE_FLOATS", R * V)
    schedule = _NoiseSchedule(monkeypatch, concurrent)
    b1, b2 = trainer.minibatch_sizes(alpha, nu, len(D))
    log_p_d, drawn, log_p_drawn = trainer.noise_phase(noise, D, b1 + b2, 0.5, rng)
    monkeypatch.undo()
    out = {
        "drawn": drawn,
        "log_p_drawn": log_p_drawn.tobytes(),
        "log_p_d": log_p_d.tobytes(),
        "params": [(k, v.tobytes()) for k, v in noise.params.items()],
        "rng": rng.bit_generator.state,
    }
    return out, schedule.kept(1)


@settings(max_examples=40, deadline=None)
@given(
    V=st.integers(1, 12),
    d=st.integers(1, 5),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    alpha=st.sampled_from([0.2, 0.5, 0.9]),
    nu=st.sampled_from([0.1, 1.0, 3.0]),
    seed=st.integers(0, 2**16),
    R=st.sampled_from([1, 2, 3, None]),
)
def test_noise_phase_concurrent_bit_identical_to_serial(V, d, lengths, alpha, nu, seed, R):
    with pytest.MonkeyPatch.context() as mp:
        serial, serial_path = _noise_phase_on_path(mp, False, V, d, lengths, alpha, nu, seed, R)
        concurrent, concurrent_path = _noise_phase_on_path(
            mp, True, V, d, lengths, alpha, nu, seed, R)
    assert serial_path and concurrent_path
    assert concurrent == serial
    # and both are the draw from the parameters before the step, then the step
    rng = np.random.default_rng(seed)
    D = helpers.shuffled_batch(rng, V, lengths)
    noise = noise_mod.init_noise_model(V, d, length_prior(D, max(lengths)), seed=seed + 1)
    b1, b2 = trainer.minibatch_sizes(alpha, nu, len(D))
    drawn, log_p_drawn = noise_mod.sample(noise, b1 + b2, rng)
    log_p_d = noise_mod.noise_train_step(noise, D, 0.5)
    assert (drawn, log_p_drawn.tobytes(), log_p_d.tobytes()) == (
        serial["drawn"], serial["log_p_drawn"], serial["log_p_d"])
    assert [(k, v.tobytes()) for k, v in noise.params.items()] == serial["params"]


def test_noise_phase_draws_the_old_parameters_after_the_kl_step(monkeypatch):
    # on the concurrent path the worker's blocks wait until the KL step is
    # done, and the caller's come after it; all of them still read the
    # parameters from before it, as on the serial path. 40 draws in blocks
    # of 3 chains make 14 blocks.
    rng = np.random.default_rng(3)
    D = helpers.shuffled_batch(rng, 7, [1, 2, 3, 4, 5, 3])
    prior = length_prior(D, 5)

    def run(concurrent):
        noise = noise_mod.init_noise_model(7, 3, prior, seed=8)
        draw_rng = np.random.default_rng(21)
        stepped = threading.Event()
        caller, blocks = threading.current_thread(), []
        step, step_block = noise_mod.noise_train_step, noise_mod.Draw.step_block

        def step_then_signal(*args):
            out = step(*args)
            stepped.set()
            return out

        def block_after_step(draw, *args):
            assert stepped.wait(timeout=30)
            blocks.append(threading.current_thread() is not caller)
            return step_block(draw, *args)

        with pytest.MonkeyPatch.context() as mp:
            _force_noise_path(mp, concurrent)
            mp.setattr(noise_mod, "SAMPLE_FLOATS", 3 * 7)
            if concurrent:
                mp.setattr(noise_mod, "noise_train_step", step_then_signal)
                mp.setattr(noise_mod.Draw, "step_block", block_after_step)
            _, drawn, log_p = trainer.noise_phase(noise, D, 40, 2.0, draw_rng)
        assert not concurrent or (stepped.is_set() and len(blocks) == 14 and any(blocks))
        return drawn, log_p.tobytes(), [v.tobytes() for v in noise.params.values()]

    assert run(True) == run(False)


def test_noise_phase_worker_exception_reaches_caller_and_worker_serves_on(monkeypatch):
    rng = np.random.default_rng(4)
    D = helpers.shuffled_batch(rng, 5, [2, 3, 1])
    noise = noise_mod.init_noise_model(5, 2, length_prior(D, 3), seed=1)
    _force_noise_path(monkeypatch, True)
    caller, threads = threading.current_thread(), []
    began = threading.Event()
    step, step_block = noise_mod.noise_train_step, noise_mod.Draw.step_block

    def step_after_worker_began(*args):
        assert began.wait(timeout=30)
        return step(*args)

    def failing(draw, *args):
        threads.append(threading.current_thread())
        began.set()
        raise KeyError("no draw today")

    monkeypatch.setattr(noise_mod, "noise_train_step", step_after_worker_began)
    monkeypatch.setattr(noise_mod.Draw, "step_block", failing)
    with pytest.raises(KeyError) as info:
        trainer.noise_phase(noise, D, 6, 0.5, rng)
    assert info.value.args == ("no draw today",)
    assert threads and threads[0] is not caller

    def noted(draw, *args):
        threads.append(threading.current_thread())
        began.set()
        return step_block(draw, *args)

    began.clear()
    monkeypatch.setattr(noise_mod.Draw, "step_block", noted)
    _, drawn, log_p = trainer.noise_phase(noise, D, 6, 0.5, rng)
    assert len(drawn) == len(log_p) == 6
    assert threads[1] is threads[0]


def test_noise_phase_size_rule_takes_both_benchmark_steps_concurrently(monkeypatch):
    # the benchmark's two DNCE steps at V = 1998: 100 sentences of about 9.5
    # words, with 200 draws (dnce-small, alpha = nu = 0.5: one block of 200
    # chains) and 900 (dnce-paper, alpha = 0.2, nu = 1: blocks of 262). The
    # rule holds (4 R + N) V to SCORE_FLOATS, so the paper step fits while D
    # has up to 1051 tokens; 100 sentences of 12-14 words do not. The noise
    # LM's own d does not enter the rule.
    V = 1998
    rng = np.random.default_rng(6)
    D = helpers.shuffled_batch(rng, V, rng.integers(5, 15, size=100))
    long_D = helpers.shuffled_batch(rng, V, rng.integers(12, 15, size=100))
    noise = noise_mod.init_noise_model(V, 2, length_prior(D, 14), seed=2)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    helpers.FakeBlas(1).install(monkeypatch)
    detached = []
    detach = noise_mod.Draw.detach

    def noted(draw):
        detached.append(draw.rows)
        return detach(draw)

    monkeypatch.setattr(noise_mod.Draw, "detach", noted)
    where = []
    for batch, alpha, nu in ((D, 0.5, 0.5), (D, 0.2, 1.0), (long_D, 0.2, 1.0)):
        before = len(detached)
        trainer.noise_phase(noise, batch, sum(trainer.minibatch_sizes(alpha, nu, 100)), 0.5, rng)
        where.append(len(detached) > before)
    assert where == [True, True, False]
    assert detached == [200, 262]


@pytest.mark.parametrize("concurrent", [False, True])
def test_train_calls_the_noise_module_once_per_step_positionally(monkeypatch, concurrent):
    # perfbench's StepClock wraps noise_mod.noise_train_step(noise, D, lr) and
    # counts its calls as steps
    rng = np.random.default_rng(2)
    V, L = 6, 4
    data = _small_corpus(rng, V, L, 25)
    prior = length_prior(data, L)
    model = _discrete_model(V, L, prior, seed=1)
    noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
    cfg = trainer.DnceConfig(alpha=0.5, nu=1.0, batch_size=10, lr_noise=0.3, max_epochs=2,
                             seed=3, schedule="per-epoch-halving")
    _force_noise_path(monkeypatch, concurrent)
    monkeypatch.setattr(noise_mod, "SAMPLE_FLOATS", 4 * V)  # a step's 10-20 draws in 3-5 blocks
    schedule = _NoiseSchedule(monkeypatch, concurrent)
    steps, samples = [], []
    step, sample = noise_mod.noise_train_step, noise_mod.sample

    def step_positional(*args, **kwargs):
        steps.append((args, kwargs))
        return step(*args, **kwargs)

    def sample_counted(*args, **kwargs):
        samples.append(threading.current_thread())
        return sample(*args, **kwargs)

    monkeypatch.setattr(noise_mod, "noise_train_step", step_positional)
    monkeypatch.setattr(noise_mod, "sample", sample_counted)
    trainer.train(cfg, data, data[:5], model, noise, max_steps=5)
    assert len(steps) == len(samples) == 5
    for args, kwargs in steps:
        assert kwargs == {} and len(args) == 3
        assert args[0] is noise and args[2] == cfg.lr_noise
    assert [len(args[1]) for args, _ in steps] == [10, 10, 5, 10, 10]  # 25 sentences an epoch
    assert all(t is threading.current_thread() for t in samples)
    assert schedule.kept(5)


# dnce_step's record holds values the step computed anyway; train hands it
# to on_step after each step.


@pytest.mark.parametrize("mode", ["discrete", "neural", "mixed"])
@pytest.mark.parametrize("budget", [None, 6, 2])
def test_dnce_step_records_the_noise_scores_and_posteriors_it_used(monkeypatch, mode, budget):
    # budget: real tokens a chunk, or the default (one chunk); at 6 the
    # scoring call still makes its input tables (8 V d floats), at 2 not
    rng = np.random.default_rng(23)
    V, L, d = 12, 5, 4
    data = _small_corpus(rng, V, L, 30)
    model = _step_model(mode, rng, V, L, d, data)
    noise = noise_mod.init_noise_model(V, 4, length_prior(data, L), seed=2)
    if budget is not None:
        monkeypatch.setattr(model_mod, "SCORE_FLOATS", budget * 16 * (d if mode != "discrete" else 1))
    cfg = trainer.DnceConfig(alpha=0.4, nu=1.5, lr_noise=0.3)
    D = data[:10]
    model0, noise0 = copy.deepcopy(model), copy.deepcopy(noise)
    step_rng = np.random.default_rng(8)
    rng0 = copy.deepcopy(step_rng)
    lrs = model.named(cfg.lr_zeta, cfg.lr_lambda, cfg.lr_theta)
    record = trainer.dnce_step(model, noise, D, cfg, step_rng, trainer.AdamState(), lrs)

    b1, b2 = trainer.minibatch_sizes(cfg.alpha, cfg.nu, len(D))
    assert (record.d, record.b1, record.b2) == (len(D), b1, b2)
    assert record.d_tokens == sum(map(len, D))
    log_p_d, drawn, log_p_drawn = trainer.noise_phase(noise0, D, b1 + b2, cfg.lr_noise, rng0)
    assert record.log_p_noise.tobytes() == np.concatenate([log_p_d, log_p_drawn]).tobytes()
    sents = D + drawn
    lengths = np.array([len(s) for s in sents])
    score = model0.log_weight_batch(sents) - model0.zeta[lengths - 1]
    want = trainer.posterior_c0(score, record.log_p_noise, cfg.nu)
    assert record.p0.tobytes() == want.tobytes()
    assert any(model.params()[k].tobytes() != v.tobytes() for k, v in model0.params().items())


def test_on_step_numbers_the_steps_across_epochs_and_a_resume(tmp_path):
    data, cfg, fresh = _resume_setup(9)  # 3 steps an epoch, 4 epochs
    steps = []

    def on_step(step, record):
        steps.append(step)
        assert record.d == 10 and len(record.p0) == len(record.log_p_noise) == 10 + 10 + 20

    m, n = fresh()
    trainer.train(copy.deepcopy(cfg), data, data[:10], m, n, on_step=on_step)
    assert steps == list(range(1, 13))
    ckpt = tmp_path / "ckpt"
    m, n = fresh()
    steps.clear()
    with pytest.raises(_Interrupt):
        trainer.train(
            copy.deepcopy(cfg), data, data[:10], m, n,
            log_sink=_InterruptAtEpoch(3), checkpoint_path=ckpt, on_step=on_step,
        )
    assert steps == list(range(1, 10))
    steps.clear()
    trainer.train(
        copy.deepcopy(cfg), data, data[:10], m, n, checkpoint_path=ckpt, resume=True,
        on_step=on_step,
    )
    assert steps == list(range(7, 13))
    # a max_steps stop inside epoch 2, without averaging: the resume starts at step 5
    data, cfg, fresh = _resume_setup(0)
    m, n = fresh()
    steps.clear()
    trainer.train(
        copy.deepcopy(cfg), data, data[:10], m, n, checkpoint_path=ckpt, max_steps=4,
        on_step=on_step,
    )
    assert steps == list(range(1, 5))
    steps.clear()
    trainer.train(
        copy.deepcopy(cfg), data, data[:10], m, n, checkpoint_path=ckpt, resume=True,
        on_step=on_step,
    )
    assert steps == list(range(5, 13))


def test_on_step_leaves_training_bit_identical():
    rng = np.random.default_rng(31)
    V, L = 10, 5
    data = _small_corpus(rng, V, L, 35)
    prior = length_prior(data, L)
    index = feats.build_feature_index(data, feats.compile_templates("w:2"), "00")
    cfg = trainer.DnceConfig(alpha=0.5, nu=1.0, batch_size=10, lr_noise=0.3, max_epochs=2,
                             seed=4, schedule="per-epoch-halving")

    def run(on_step):
        model = TrfModel(_vocab(V), prior, zeta_init(V, L), feature_index=index,
                         lam=np.zeros(index.n_features), phi_params=neural.init_phi_params(V, 3))
        noise = noise_mod.init_noise_model(V, 3, prior, seed=2)
        _, state = trainer.train(copy.deepcopy(cfg), data, data[:10], model, noise,
                                 on_step=on_step)
        return (
            [(k, v.tobytes()) for k, v in model.params().items()],
            [(k, v.tobytes()) for k, v in noise.params.items()],
            state.dev_history,
        )

    records = []
    assert run(None) == run(lambda step, record: records.append(record))
    assert len(records) == 8


@pytest.mark.parametrize("case", ["long dev", "long train", "empty train", "zero-prior dev"])
def test_train_refuses_sentences_it_cannot_score_before_its_first_step(monkeypatch, case):
    rng = np.random.default_rng(3)
    V, L = 4, 3
    data = _small_corpus(rng, V, L, 40)
    train, dev = [s for s in data if len(s) != 2], [s for s in data[:10] if len(s) != 2]
    model = _discrete_model(V, L, length_prior(train, L), seed=1, lam_scale=0.5)
    noise = noise_mod.init_noise_model(V, 3, model.prior, seed=2)
    bad, message = {
        "long dev": ((1,) * 4, "lengths outside 1..3: [4]"),
        "long train": ((1,) * 4, "lengths outside 1..3: [4]"),
        "empty train": ((), "lengths outside 1..3: [0]"),
        "zero-prior dev": ((1, 2), "lengths with zero prior probability: [2]"),
    }[case]
    (dev if case.endswith("dev") else train).insert(5, bad)
    steps = []
    monkeypatch.setattr(noise_mod, "noise_train_step", lambda *args: steps.append(args))
    before = [v.tobytes() for v in [*model.params().values(), *noise.params.values()]]
    cfg = trainer.DnceConfig(alpha=0.5, nu=1.0, batch_size=10, max_epochs=2, seed=3,
                             schedule="per-epoch-halving")
    with pytest.raises(CorpusError, match=re.escape(message)):
        trainer.train(cfg, train, dev, model, noise)
    assert steps == []
    assert [v.tobytes() for v in [*model.params().values(), *noise.params.values()]] == before


def _sampled_dnce_gradients(monkeypatch, concurrent, model, noise, data, alpha, nu, lr, K):
    """K grad_estimate results, one row each: D of 4 sentences drawn from
    `data` (sentence -> probability), and B1 and B2 from trainer.noise_phase
    on the chosen path, whose KL step is undone after each call so that
    every draw and every log-probability comes from the one noise LM."""
    sents, probs = list(data), np.array(list(data.values()))
    before = {k: v.copy() for k, v in noise.params.items()}
    b1, b2 = trainer.minibatch_sizes(alpha, nu, 4)
    if concurrent:
        _force_noise_path(monkeypatch, True)
    else:  # one allowed CPU; a SCORE_FLOATS of 0 would cut grad_estimate into one-sentence chunks
        monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0})
    schedule = _NoiseSchedule(monkeypatch, concurrent)
    rng = np.random.default_rng(13)
    rows = []
    for _ in range(K):
        D = [sents[j] for j in rng.choice(len(sents), 4, p=probs)]
        log_p_d, drawn, log_p_drawn = trainer.noise_phase(noise, D, b1 + b2, lr, rng)
        noise.params = {k: v.copy() for k, v in before.items()}
        g = trainer.grad_estimate(
            model, D, drawn[:b1], drawn[b1:], np.concatenate([log_p_d, log_p_drawn]), alpha, nu
        )
        rows.append(np.concatenate([np.ravel(v) for v in g.values()]))
    assert schedule.kept(K)
    monkeypatch.undo()
    return np.array(rows)


@pytest.mark.parametrize("alpha, nu", [(0.5, 2.0), (0.25, 0.5)])
def test_sampled_dnce_gradient_equals_exact_gradient_in_expectation(monkeypatch, alpha, nu):
    # a random mixed model (V = 3, L = 3, d = 2, w:2 features) and noise LM.
    # |B1| = (1 - alpha)/alpha |D| and |B2| = nu/alpha |D| are whole numbers,
    # so the estimator's expectation is the exact gradient; they differ, so
    # B1's and B2's weights cannot be swapped unseen, and log nu is not 0. The
    # exact gradient is checked against the objective's finite differences,
    # since it reads P(C=0|x) through trainer.posterior_c0 as the estimator does.
    V, L, d, K = 3, 3, 2, 400
    rng = np.random.default_rng(11)
    pi = rng.random(L) + 0.2
    prior = LengthPrior(pi / pi.sum())
    space = oracle.EnumSpace(V, L)
    sents = list(helpers.all_sentences(space))
    index = feats.build_feature_index(sents, feats.compile_templates("w:2"), "00")
    phi = {k: rng.uniform(-1.0, 1.0, v.shape) for k, v in neural.init_phi_params(V, d).items()}
    model = TrfModel(
        _vocab(V), prior, zeta_init(V, L) + rng.uniform(-1.0, 1.0, L), feature_index=index,
        lam=rng.uniform(-1.0, 1.0, index.n_features), phi_params=phi,
    )
    noise = noise_mod.init_noise_model(V, d, prior, seed=12)
    for k in noise.params:
        noise.params[k] = rng.uniform(-1.0, 1.0, noise.params[k].shape)
    w = rng.random(len(sents)) * np.array([prior.prob(len(s)) for s in sents])
    data = dict(zip(sents, w / w.sum()))
    exact = oracle.exact_dnce_gradient(model, noise, data, alpha, nu, space)
    objective = lambda: oracle.exact_dnce_objective(model, noise, data, alpha, nu, space)
    assert oracle.gradient_error(objective, model.params(), exact, floor=1e-5) < 1e-4
    exact = np.concatenate([np.ravel(v) for v in exact.values()])
    # a KL step this large (lr 4) moves D's noise log-probabilities far, so
    # reading them after the step instead of before it biases the estimate
    for concurrent in (False, True):
        samples = _sampled_dnce_gradients(
            monkeypatch, concurrent, model, noise, data, alpha, nu, 4.0, K
        )
        se = samples.std(axis=0, ddof=1) / math.sqrt(K)
        z = np.abs(samples.mean(axis=0) - exact) / se
        assert np.all(z < 5), (concurrent, z.max())
