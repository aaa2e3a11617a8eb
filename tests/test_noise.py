import copy
import hashlib
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import noise, oracle
from trflm.corpus import CorpusError, LengthPrior

import helpers


def _random_noise(V, d, prior, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    m = noise.init_noise_model(V, d, prior, seed=seed)
    m.params = {k: rng.uniform(-scale, scale, v.shape) for k, v in m.params.items()}
    return m


def test_uniform_conditionals():
    prior = LengthPrior(np.array([0.0, 0.0, 0.5, 0.5]))
    m = noise.init_noise_model(2, 3, prior, seed=1)
    m.params["Wo"][:] = 0.0
    m.params["bo"][:] = 0.0
    got = helpers.noise_log_prob(m, (0, 1, 0))
    assert got == pytest.approx(math.log(0.5) + 3 * math.log(0.5))


def test_log_prob_bounded_by_length_prior():
    prior = LengthPrior(np.array([0.3, 0.7]))
    m = _random_noise(3, 4, prior, seed=2)
    for s in [(0,), (1, 2), (2, 2)]:
        assert helpers.noise_log_prob(m, s) <= math.log(prior.prob(len(s))) + 1e-12


def test_log_prob_zero_prior_length_errors():
    prior = LengthPrior(np.array([1.0, 0.0]))
    m = _random_noise(2, 2, prior, seed=3)
    with pytest.raises(CorpusError):
        helpers.noise_log_prob(m, (0, 1))


def test_log_prob_matches_scalar_unroll():
    # d=1, V=2: hand-unroll the gated cell and softmax
    prior = LengthPrior(np.array([0.5, 0.5]))
    m = _random_noise(2, 1, prior, seed=4)
    s = (1, 0)

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    W, U, b = m.params["W"], m.params["U"], m.params["b"]
    Wo, bo = m.params["Wo"], m.params["bo"]
    emb = m.params["emb"]
    h, c = 0.0, 0.0
    total = 0.0
    prev = m.bos_id
    for target in s:
        x = float(emb[prev, 0])
        a = [x * W[0][g] + h * U[0][g] + b[g] for g in range(4)]
        i, f, o = sig(a[0]), sig(a[1]), sig(a[2])
        g = math.tanh(a[3])
        c = f * c + i * g
        h = o * math.tanh(c)
        logits = [h * Wo[0][v] + bo[v] for v in range(2)]
        z = math.log(sum(math.exp(v) for v in logits))
        total += logits[target] - z
        prev = target
    expected = math.log(0.5) + total
    assert helpers.noise_log_prob(m, s) == pytest.approx(expected, rel=1e-12)


def test_conditionals_sum_to_one():
    prior = LengthPrior(np.array([0.5, 0.5]))
    m = _random_noise(3, 4, prior, seed=5)
    # sum over all continuations of a fixed prefix at each length
    total = sum(
        math.exp(noise.seq_log_prob_batch(m, [(a, b)])[0])
        for a in range(3)
        for b in range(3)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sample_count_zero():
    prior = LengthPrior(np.array([1.0]))
    m = _random_noise(2, 2, prior, seed=6)
    sents, log_p = noise.sample(m, 0, np.random.default_rng(0))
    assert sents == [] and log_p.shape == (0,)


def test_sample_length_prior_concentrated():
    prior = LengthPrior(np.array([0.0, 1.0, 0.0]))
    m = _random_noise(3, 3, prior, seed=7)
    samples, _ = noise.sample(m, 50, np.random.default_rng(1))
    assert all(len(s) == 2 for s in samples)


def test_sample_deterministic_given_rng():
    prior = LengthPrior(np.array([0.4, 0.6]))
    m = _random_noise(3, 3, prior, seed=8)
    a, lp_a = noise.sample(m, 20, np.random.default_rng(5))
    b, lp_b = noise.sample(m, 20, np.random.default_rng(5))
    assert a == b
    assert np.array_equal(lp_a, lp_b)


# the draws of this model and seed, fixed: a change to the sampler's
# arithmetic that alters any draw fails here
GOLDEN_DRAWS = [
    (6, 1, 1, 4), (1, 3, 1, 0), (5, 5, 4, 4), (4,), (1, 2, 0, 4), (1, 1, 1, 0),
    (6, 5, 6), (2, 1), (2, 5, 3, 6), (4, 3, 2, 0), (2, 3), (0, 2, 1, 0),
]


def test_sample_golden_draws():
    prior = LengthPrior(np.array([0.1, 0.2, 0.3, 0.4]))
    m = noise.init_noise_model(7, 4, prior, seed=3)
    sents, _ = noise.sample(m, 12, np.random.default_rng(21))
    assert sents == GOLDEN_DRAWS


@given(
    V=st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129]), st.integers(1, 200)),
    d=st.integers(1, 6),
    scale=st.floats(0.0, 30.0),
    count=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_sample_matches_reference_sampler(V, d, scale, count, seed):
    # block boundaries (V around multiples of 64) and peaked rows (Wo scaled
    # up to 30x) must not move a draw or a bit of its log-probability
    L = 1 + seed % 8
    m = _random_noise(V, d, LengthPrior(np.full(L, 1 / L)), seed=seed)
    m.params["Wo"] *= scale
    sents, log_p = noise.sample(m, count, np.random.default_rng(seed))
    ref_sents, ref_log_p = helpers.reference_sample(m, count, np.random.default_rng(seed))
    assert sents == ref_sents
    assert np.array_equal(log_p, ref_log_p)


def test_sample_log_p_equals_scoring():
    prior = LengthPrior(np.array([0.1, 0.15, 0.2, 0.25, 0.2, 0.1]))
    m = _random_noise(50, 8, prior, seed=12, scale=1.0)
    sents, log_p = noise.sample(m, 40, np.random.default_rng(13))
    assert len({len(s) for s in sents}) > 1  # padding and masking are exercised
    np.testing.assert_allclose(log_p, noise.seq_log_prob_batch(m, sents), rtol=0, atol=1e-12)


def test_sampling_matches_scoring():
    # empirical frequencies of every enumerable sentence stay within
    # three standard errors of exp(helpers.noise_log_prob)
    prior = LengthPrior(np.array([0.35, 0.65]))
    m = _random_noise(2, 3, prior, seed=9)
    n = 50000
    counts = Counter(noise.sample(m, n, np.random.default_rng(11))[0])
    space = oracle.EnumSpace(2, 2)
    for s in helpers.all_sentences(space):
        p = math.exp(helpers.noise_log_prob(m, s))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[s] / n - p) <= 3 * se + 1e-9


def test_train_step_lr_zero_no_change():
    prior = LengthPrior(np.array([0.5, 0.5]))
    m = _random_noise(3, 3, prior, seed=10)
    before = {k: v.copy() for k, v in m.params.items()}
    noise.noise_train_step(m, [(0, 1), (2,)], lr=0.0)
    for k in before:
        assert (m.params[k] == before[k]).all()


def test_train_step_returns_scores_before_its_update():
    rng = np.random.default_rng(23)
    m = _random_noise(20, 5, LengthPrior(np.full(8, 1 / 8)), seed=23)
    ref = copy.deepcopy(m)
    sents = helpers.shuffled_batch(rng, 20, [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    before = noise.seq_log_prob_batch(m, sents)
    got = noise.noise_train_step(m, sents, lr=0.5)
    assert got.tobytes() == before.tobytes()
    helpers.reference_noise_train_step(ref, sents, lr=0.5)
    for k in ref.params:
        assert m.params[k].tobytes() == ref.params[k].tobytes(), k
    assert not np.array_equal(noise.seq_log_prob_batch(m, sents), before)  # the step moved


def test_nll_gradient_matches_finite_differences():
    prior = LengthPrior(np.array([0.3, 0.3, 0.4]))
    m = _random_noise(4, 3, prior, seed=12)
    batch = [(0, 2, 1), (3,), (1, 1)]
    _, grads, _ = noise.nll_and_grads(m, batch)
    err = oracle.gradient_error(
        lambda: noise.nll_and_grads(m, batch)[0], m.params, grads, floor=1e-6
    )
    assert err < 1e-4


def test_repeated_steps_decrease_nll():
    rng = np.random.default_rng(13)
    prior = LengthPrior(np.array([0.2, 0.4, 0.4]))
    m = noise.init_noise_model(5, 4, prior, seed=13)
    corpus = [tuple(rng.integers(0, 5, size=rng.integers(1, 4))) for _ in range(30)]
    prev = noise.nll_and_grads(m, corpus)[0]
    for _ in range(10):
        noise.noise_train_step(m, corpus, lr=0.1)
        cur = noise.nll_and_grads(m, corpus)[0]
        assert cur < prev
        prev = cur


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0])}
    total = noise.clip_global_norm(grads, max_norm=1.0)
    assert total == pytest.approx(5.0)
    assert np.allclose(grads["a"], [0.6, 0.8])


def test_empty_minibatch_errors():
    prior = LengthPrior(np.array([1.0]))
    m = _random_noise(2, 2, prior, seed=14)
    with pytest.raises(CorpusError):
        noise.nll_and_grads(m, [])


PACKING_CASES = {
    "mixed-lengths": [1, 2, 3, 4, 5, 6, 7, 8] * 5,
    "equal-lengths": [5] * 12,
    "length-one": [1] * 6,
}


@pytest.mark.parametrize("case", PACKING_CASES, ids=list(PACKING_CASES))
def test_packed_scoring_and_gradients_match_masked_reference(case):
    rng = np.random.default_rng(19)
    m = _random_noise(20, 5, LengthPrior(np.full(8, 1 / 8)), seed=19)
    sents = helpers.shuffled_batch(rng, 20, PACKING_CASES[case])
    np.testing.assert_allclose(
        noise.seq_log_prob_batch(m, sents), helpers.masked_seq_log_prob_batch(m, sents),
        rtol=0, atol=1e-12,
    )
    nll, grads, _ = noise.nll_and_grads(m, sents)
    ref_nll, ref = helpers.masked_nll_and_grads(m, sents)
    assert nll == pytest.approx(ref_nll, rel=0, abs=1e-12)
    assert grads.keys() == ref.keys()
    for k in ref:
        np.testing.assert_allclose(grads[k], ref[k], rtol=0, atol=1e-10, err_msg=k)


def test_packed_scoring_reorders_with_its_batch():
    rng = np.random.default_rng(20)
    m = _random_noise(20, 5, LengthPrior(np.full(8, 1 / 8)), seed=20)
    sents = helpers.shuffled_batch(rng, 20, [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    perm = rng.permutation(len(sents))
    lp = noise.seq_log_prob_batch(m, sents)
    permuted = noise.seq_log_prob_batch(m, [sents[j] for j in perm])
    assert permuted.tobytes() == lp[perm].tobytes()


def _realistic_noise():
    # hundreds of words, lengths 1..14 shaped like the bundled corpus's,
    # and weights far from uniform so that the conditionals are peaked
    w = np.array([1, 1, 2, 3, 5, 8, 10, 12, 12, 10, 8, 6, 4, 3.0])
    m = noise.init_noise_model(240, 40, LengthPrior(w / w.sum()), seed=31)
    rng = np.random.default_rng(31)
    m.params = {k: rng.uniform(-1.0, 1.0, v.shape) for k, v in m.params.items()}
    return m


def test_sample_golden_draws_realistic_size():
    # 400 chains of lengths 1..14 over V=240: stepping only the live chains
    # runs every GEMM on fewer rows, which must not move any draw
    sents, _ = noise.sample(_realistic_noise(), 400, np.random.default_rng(5))
    assert len({len(s) for s in sents}) == 14
    digest = hashlib.sha256(repr(sents).encode()).hexdigest()
    assert digest == "3bb055db9ae2f3ae72a6d2dc07e9d3590ca5464656c226b903672ec55e9f0f50"


def test_sample_matches_stepping_every_chain():
    m = _realistic_noise()
    sents, log_p = noise.sample(m, 300, np.random.default_rng(6))
    ref_sents, ref_log_p = helpers.masked_sample(m, 300, np.random.default_rng(6))
    assert sents == ref_sents
    assert log_p.tobytes() == ref_log_p.tobytes()


def _assert_nll_and_grads_bitwise(m, sents):
    nll, grads, log_p = noise.nll_and_grads(m, sents)
    ref_nll, ref, ref_log_p = helpers.reference_nll_and_grads(m, sents)
    assert nll == ref_nll
    assert log_p.tobytes() == ref_log_p.tobytes()
    assert grads.keys() == ref.keys()
    for k in ref:
        assert grads[k].tobytes() == ref[k].tobytes(), k


@pytest.mark.parametrize(
    "floats", [1, 20, 60, 2**17], ids=["one-row", "one-row-of-V", "3-rows", "default"]
)
def test_nll_and_grads_bitwise_equal_reference_at_any_block_size(floats, monkeypatch):
    # the log-softmax runs in blocks of max(1, floats // V) rows; V = 20
    monkeypatch.setattr(noise, "SOFTMAX_FLOATS", floats)
    rng = np.random.default_rng(21)
    m = _random_noise(20, 5, LengthPrior(np.full(8, 1 / 8)), seed=21)
    _assert_nll_and_grads_bitwise(m, helpers.shuffled_batch(rng, 20, [1, 2, 3, 5, 8] * 6))


def test_nll_and_grads_bitwise_equal_reference_realistic_size():
    # 100 sentences are about 800 tokens: two blocks of 2**17 // 240 rows
    m = _realistic_noise()
    rng = np.random.default_rng(22)
    sents, _ = noise.sample(m, 100, rng)
    assert sum(map(len, sents)) > 2**17 // m.V
    _assert_nll_and_grads_bitwise(m, sents)


def _lone_rows(lengths, R):
    """Steps at which a block of R chains, sorted longest first, has one
    live chain while the draw has more."""
    lengths = np.sort(lengths)[::-1]
    return [
        (lo, t)
        for lo in range(0, len(lengths), R)
        for t in range(lengths[lo])
        if (lengths[lo : lo + R] > t).sum() == 1 and (lengths > t).sum() > 1
    ]


@pytest.mark.parametrize("R", [1, 2, 3])
def test_sample_in_blocks_of_few_chains_matches_both_references(R, monkeypatch):
    # 300 chains in blocks of 1-3: one-chain blocks and blocks whose live
    # rows drop to one while the draw has more must step as two-row products
    m = _realistic_noise()
    monkeypatch.setattr(noise, "SAMPLE_FLOATS", R * m.V)
    for ref in (helpers.reference_sample, helpers.masked_sample):
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        sents, log_p = noise.sample(m, 300, rng)
        ref_sents, ref_log_p = ref(m, 300, ref_rng)
        assert sents == ref_sents
        assert log_p.tobytes() == ref_log_p.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _lone_rows(np.array([len(s) for s in sents]), R)


def test_sample_memory_stays_at_its_blocks_as_the_draw_grows():
    # V = 1998 as in the benchmark: blocks of R = 262 chains, whose two (R, V)
    # work arrays are 8.4 MB, against 2 * count * V floats (38 MB at 1200)
    # for a draw in one block
    V = 1998
    w = np.array([1, 1, 2, 3, 5, 8, 10, 12, 12, 10, 8, 6, 4, 3.0])
    m = noise.init_noise_model(V, 8, LengthPrior(w / w.sum()), seed=32)
    R = noise.SAMPLE_FLOATS // V
    noise.sample(m, 10, np.random.default_rng(0))  # warm up lazily allocated state
    peaks = []
    for count in (300, 600, 1200):
        tracemalloc.start()
        try:
            noise.sample(m, count, np.random.default_rng(count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.15 * 2 * R * V * 8, peaks
    assert peaks[2] < 1.05 * peaks[0], peaks


def test_kl_step_makes_no_gate_sized_array():
    # nll_and_grads peaks below what its forward pass keeps plus one (real
    # tokens, 4d) array: the backward writes its gate gradients over the gates
    V, d, lengths = 20, 16, [12] * 40
    w = np.ones(12)
    m = _random_noise(V, d, LengthPrior(w / w.sum()), seed=33)
    rng = np.random.default_rng(33)
    sents = [tuple(int(x) for x in rng.integers(0, V, size=l)) for l in lengths]
    noise.nll_and_grads(m, sents)
    tracemalloc.start()
    try:
        forward = noise._forward(m, sents)
        kept = tracemalloc.get_traced_memory()[0]
        del forward
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        noise.nll_and_grads(m, sents)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < kept + sum(lengths) * 4 * d * 8, (peak, kept)


def test_draw_blocks_shared_by_many_threads_run_once_each(monkeypatch):
    # four threads on one Draw, switching often: every block must be taken
    # by exactly one thread, or log_p (accumulated per step) and the rows
    # of the draws would differ from the draw on one thread
    m = _realistic_noise()
    want_sents, want_log_p = noise.sample(m, 120, np.random.default_rng(7))
    monkeypatch.setattr(noise, "SAMPLE_FLOATS", 2 * m.V)  # 60 blocks of 2 chains
    draw = noise.Draw(m, 120, np.random.default_rng(7))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw.run_blocks) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sents, log_p = draw.result()
    assert sents == want_sents
    assert log_p.tobytes() == want_log_p.tobytes()
