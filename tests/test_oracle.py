import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import features as feats
from trflm import model as model_mod
from trflm import neural, oracle
from trflm.corpus import LengthPrior, Vocabulary
from trflm.model import TrfModel, zeta_init
from trflm.noise import init_noise_model

import helpers

def _vocab(V):
    return Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])


def test_enum_guard():
    with pytest.raises(oracle.OracleError):
        oracle.EnumSpace(100, 10)
    oracle.EnumSpace(5, 4)  # fine


def test_enumeration_counts():
    space = oracle.EnumSpace(3, 2)
    assert len(list(helpers.all_sentences(space))) == 3 + 9


def test_exact_log_z_zero_potentials():
    V, L = 4, 3
    model = TrfModel(_vocab(V), LengthPrior(np.ones(L) / L), zeta_init(V, L))
    zeta = oracle.exact_log_z(model, oracle.EnumSpace(V, L))
    assert np.allclose(zeta, [math.log(V) * l for l in range(1, L + 1)], atol=1e-12)


def test_exact_log_z_single_feature():
    # one unigram feature on word 1 with weight c, V=2, l=1:
    # Z_1 = e^c + 1
    V, L, c = 2, 1, 0.7
    tset = feats.TemplateSet([feats.Template("word", (0,))], 1)
    index = feats.build_feature_index([(1,)], tset, [0])
    model = TrfModel(
        _vocab(V), LengthPrior(np.array([1.0])), np.zeros(1),
        feature_index=index, lam=np.array([c]),
    )
    zeta = oracle.exact_log_z(model, oracle.EnumSpace(V, L))
    assert zeta[0] == pytest.approx(math.log(math.exp(c) + 1.0), rel=1e-12)


def test_exact_log_z_enumeration_order_invariant():
    rng = np.random.default_rng(0)
    space = oracle.EnumSpace(3, 3)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    model = TrfModel(
        _vocab(3), LengthPrior(np.ones(3) / 3), zeta_init(3, 3),
        feature_index=index, lam=rng.uniform(-0.5, 0.5, index.n_features),
    )
    zeta = oracle.exact_log_z(model, space)
    for l in range(1, 4):
        sents = list(space.sentences_of_length(l))
        lw = model.log_weight_batch(sents)
        perm = rng.permutation(len(sents))
        m = lw.max()
        reordered = float(m + np.log(np.exp(lw[perm] - m).sum()))
        assert abs(reordered - zeta[l - 1]) < 1e-12


def test_self_consistency_normalization():
    rng = np.random.default_rng(7)
    space = oracle.EnumSpace(3, 3)
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index(list(helpers.all_sentences(space)), tset, "00")
    from trflm import neural

    phi = {
        k: rng.uniform(-0.4, 0.4, v.shape)
        for k, v in neural.init_phi_params(3, 2, seed=7).items()
    }
    model = TrfModel(
        _vocab(3), LengthPrior(np.array([0.2, 0.5, 0.3])), zeta_init(3, 3),
        feature_index=index, lam=rng.uniform(-0.5, 0.5, index.n_features),
        phi_params=phi,
    )
    model.zeta = oracle.exact_log_z(model, space)
    total = sum(oracle.exact_sentence_probs(model, space).values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_expectations_uniform_model():
    # uniform model: E[count of word a at length l] = l / V; mix by pi
    V, L = 3, 3
    pi = np.array([0.2, 0.3, 0.5])
    tset = feats.TemplateSet([feats.Template("word", (0,))], 1)
    index = feats.build_feature_index([(1,)], tset, [0])
    model = TrfModel(
        _vocab(V), LengthPrior(pi), zeta_init(V, L),
        feature_index=index, lam=np.zeros(1),
    )
    got = oracle.exact_expectations(model, oracle.EnumSpace(V, L), index)
    expected = sum(pi[l - 1] * l / V for l in range(1, L + 1))
    assert got[0] == pytest.approx(expected, abs=1e-12)


def test_exact_expectations_saturated_feature():
    # huge weight on one sentence's unique bigram concentrates mass there
    V, L = 3, 2
    space = oracle.EnumSpace(V, L)
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    index = feats.build_feature_index([(1, 2)], tset, [0, 0])
    pi = np.array([0.0, 1.0])
    model = TrfModel(
        _vocab(V), LengthPrior(pi), zeta_init(V, L),
        feature_index=index, lam=np.array([50.0]),
    )
    model.zeta = oracle.exact_log_z(model, space)
    got = oracle.exact_expectations(model, space, index)
    assert got[0] == pytest.approx(1.0, abs=1e-9)


def test_exact_expectations_empty_index():
    V, L = 2, 2
    model = TrfModel(_vocab(V), LengthPrior(np.array([0.5, 0.5])), zeta_init(V, L))
    index = feats.build_feature_index([], feats.TemplateSet([], 1), [0])
    got = oracle.exact_expectations(model, oracle.EnumSpace(V, L), index)
    assert got.shape == (0,)


def test_finite_diff_linear_function():
    c = np.array([1.5, -2.0, 0.25])
    p = {"p": np.zeros(3)}
    grad = oracle.finite_diff(lambda: float(c @ p["p"]), p)
    assert np.allclose(grad["p"], c, atol=1e-10)


def test_finite_diff_quadratic():
    p = {"v": np.array([0.3, -1.2])}
    grad = oracle.finite_diff(lambda: float(p["v"] @ p["v"]), p, epsilon=1e-6)
    assert np.allclose(grad["v"], 2 * p["v"], atol=1e-8)


def test_finite_diff_bad_epsilon():
    with pytest.raises(oracle.OracleError):
        oracle.finite_diff(lambda: 0.0, {"p": np.zeros(1)}, epsilon=0.0)


def test_finite_diff_leaves_arrays_bit_identical():
    # values for which x + eps - 2 eps + eps != x: only restoring the
    # saved element gives the array back
    rng = np.random.default_rng(3)
    arrays = {
        "a": rng.standard_normal((3, 4)),
        "b": 1e3 * rng.standard_normal(5),
        "c": np.array(0.1),
    }
    before = {k: v.copy() for k, v in arrays.items()}
    grads = oracle.finite_diff(
        lambda: float(sum(np.sin(v).sum() for v in arrays.values())), arrays
    )
    for k, v in arrays.items():
        assert v.tobytes() == before[k].tobytes()
        assert grads[k].shape == v.shape


def test_gradient_error_refuses_mismatched_gradients():
    arrays = {"a": np.array([0.5, -1.0]), "b": np.array([2.0, 0.3])}

    def fn():
        return float(arrays["a"] @ arrays["a"] + arrays["b"].sum())

    right = {"a": 2 * arrays["a"], "b": np.ones(2)}
    assert oracle.gradient_error(fn, arrays, right, floor=1e-6) < 1e-8
    for wrong in (
        {"a": right["a"]},  # a group missing
        {"a": right["a"], "c": right["b"]},  # misnamed, same length
        {"a": right["a"], "b": right["b"][:, None]},  # same size, other shape
    ):
        with pytest.raises(oracle.OracleError):
            oracle.gradient_error(fn, arrays, wrong, floor=1e-6)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_exact_dnce_gradient_is_chunk_invariant_and_skips_zero_prior_lengths(data):
    kind = data.draw(st.sampled_from(["discrete", "neural", "mixed"]))
    V, L = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    d = data.draw(st.integers(1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    space = oracle.EnumSpace(V, L)
    everything = list(helpers.all_sentences(space))
    pi = rng.random(L) + 0.1
    skipped = data.draw(st.integers(1, L))
    pi[skipped - 1] = 0.0
    index = feats.build_feature_index(everything, feats.compile_templates("w:2"), "00")
    model = TrfModel(
        _vocab(V), LengthPrior(pi / pi.sum()), zeta_init(V, L) + rng.normal(0.0, 1.0, L),
        feature_index=index if kind != "neural" else None,
        lam=rng.uniform(-1, 1, index.n_features) if kind != "neural" else None,
        phi_params=neural.init_phi_params(V, d, seed=1) if kind != "discrete" else None,
    )
    noise = init_noise_model(V, 2, LengthPrior(np.full(L, 1.0 / L)), seed=2)
    for k in noise.params:
        noise.params[k] = rng.uniform(-0.5, 0.5, noise.params[k].shape)
    data_probs = {everything[j]: 0.05 for j in rng.integers(0, len(everything), 20)}
    args = (model, noise, data_probs, 0.4, 1.5, space)
    want = oracle.exact_dnce_gradient(*args)

    # a budget of 1..(every scored token) real tokens per chunk
    total = sum(len(s) for s in everything if len(s) != skipped)
    budget = data.draw(st.integers(1, total))
    chunks = []
    potential_batch = model.potential_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "SCORE_FLOATS", budget * 16 * (d if kind != "discrete" else 1))
        mp.setattr(model, "potential_batch", lambda b: chunks.append(b) or potential_batch(b))
        got = oracle.exact_dnce_gradient(*args)
    assert got.keys() == want.keys()
    for k in want:
        if len(chunks) == 1:
            assert got[k].tobytes() == want[k].tobytes(), k
        else:
            # an entry where the terms cancel carries the rounding of the
            # terms, not of the entry: measure it against the array's largest
            scale = np.abs(want[k]).max()
            np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-12 * scale, err_msg=k)

    assert want["zeta"][skipped - 1] == 0.0
    err = oracle.gradient_error(
        lambda: oracle.exact_dnce_objective(*args), model.params(), want, floor=1e-5
    )
    assert err < 1e-4
