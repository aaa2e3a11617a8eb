import math

import numpy as np
import pytest

from trflm import neural, oracle

import helpers


def _random_params(V, d, n_layers=1, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    params = neural.init_phi_params(V, d, n_layers=n_layers, seed=seed)
    return {k: rng.uniform(-scale, scale, v.shape) for k, v in params.items()}


def test_init_deterministic():
    a = neural.init_phi_params(5, 3, seed=11)
    b = neural.init_phi_params(5, 3, seed=11)
    for k in a:
        assert (a[k] == b[k]).all()


def test_init_shapes():
    p = neural.init_phi_params(3, 2, seed=0)
    assert p["emb"].shape == (3, 2)
    assert p["fwd0_W"].shape == (2, 8)
    assert p["bwd0_b"].shape == (8,)
    assert all(np.abs(v).max() <= 0.1 for v in p.values())


def test_paper_scale_config_shapes():
    p = neural.init_phi_params(50, 200, n_layers=1, seed=0)
    assert p["emb"].shape == (50, 200)
    assert p["fwd0_U"].shape == (200, 800)


def _masked_sigmoid(x):
    """The gate activation as first written, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_masked_reference():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.normal(0.0, 5.0, 10000), rng.normal(0.0, 400.0, 1000),
        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2, np.inf, -np.inf],
    ])
    assert neural._sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()


def test_phi_length_one_is_zero():
    params = _random_params(4, 3, seed=1)
    value, _ = helpers.phi_forward((2,), params)
    assert value == 0.0


def test_phi_zero_weights_is_zero():
    params = neural.init_phi_params(4, 3, seed=2)
    for k in params:
        if k != "emb":
            params[k] = np.zeros_like(params[k])
    value, _ = helpers.phi_forward((1, 2, 3), params)
    assert value == 0.0


def test_phi_matches_scalar_unroll():
    # V=2, d=1: every quantity is a scalar, unrolled by hand below.
    params = _random_params(2, 1, seed=5)
    s = (0, 1)

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    def cell_step(x, h, c, W, U, b):
        a = [x * W[0][g] + h * U[0][g] + b[g] for g in range(4)]
        i, f, o = sig(a[0]), sig(a[1]), sig(a[2])
        g = math.tanh(a[3])
        c_new = f * c + i * g
        return o * math.tanh(c_new), c_new

    e = [float(params["emb"][w, 0]) for w in s]
    hf1, _ = cell_step(e[0], 0.0, 0.0, params["fwd0_W"], params["fwd0_U"], params["fwd0_b"])
    hb2, _ = cell_step(e[1], 0.0, 0.0, params["bwd0_W"], params["bwd0_U"], params["bwd0_b"])
    expected = hf1 * e[1] + hb2 * e[0]
    value, _ = helpers.phi_forward(s, params)
    assert value == pytest.approx(expected, rel=1e-12)


def test_phi_deterministic():
    params = _random_params(5, 4, seed=3)
    s = (0, 3, 2, 4)
    v1, _ = helpers.phi_forward(s, params)
    v2, _ = helpers.phi_forward(s, params)
    assert v1 == v2


def test_phi_independent_of_batch_grouping():
    params = _random_params(5, 3, seed=9)
    sents = [(0, 1, 2, 3, 4), (2, 2), (1,), (4, 0, 1)]
    batched, _ = neural.phi_forward_batch(sents, params)
    singles = [helpers.phi_forward(s, params)[0] for s in sents]
    assert np.allclose(batched, singles, rtol=0, atol=1e-12)


def _gradient_check(V, d, n_layers, sents, weights, seed):
    params = _random_params(V, d, n_layers=n_layers, seed=seed)
    _, cache = neural.phi_forward_batch(sents, params)
    return oracle.gradient_error(
        lambda: float(np.dot(weights, neural.phi_forward_batch(sents, params)[0])),
        params,
        neural.phi_backward_batch(cache, weights),
        floor=1e-6,
    )


def test_gradient_matches_finite_differences():
    sents = [(0, 2, 1, 3), (2,), (1, 1, 0, 3, 2)]
    err = _gradient_check(4, 3, 1, sents, np.array([1.0, -0.5, 2.0]), seed=7)
    assert err < 1e-4


def test_gradient_matches_finite_differences_two_layers():
    sents = [(0, 1, 2), (2, 0)]
    err = _gradient_check(3, 2, 2, sents, np.array([0.7, 1.3]), seed=8)
    assert err < 1e-4


def test_gradient_check_random_configs():
    rng = np.random.default_rng(123)
    for _ in range(3):
        V = int(rng.integers(2, 5))
        d = int(rng.integers(1, 8))
        l = int(rng.integers(2, 6))
        s = tuple(rng.integers(0, V, size=l))
        err = _gradient_check(V, d, 1, [s], np.ones(1), seed=int(rng.integers(1 << 31)))
        assert err < 1e-4


def test_backward_scale_zero_leaves_accumulator():
    params = _random_params(3, 2, seed=4)
    _, cache = helpers.phi_forward((0, 1, 2), params)
    acc = helpers.zero_grads(params)
    helpers.phi_backward(cache, 0.0, acc)
    assert all((v == 0).all() for v in acc.values())


def test_backward_accumulation_linearity():
    params = _random_params(3, 2, seed=6)
    _, cache = helpers.phi_forward((0, 1, 2), params)
    acc_ab = helpers.zero_grads(params)
    helpers.phi_backward(cache, 0.3, acc_ab)
    helpers.phi_backward(cache, 0.9, acc_ab)
    acc_sum = helpers.zero_grads(params)
    helpers.phi_backward(cache, 1.2, acc_sum)
    for k in acc_ab:
        assert np.allclose(acc_ab[k], acc_sum[k], atol=1e-12)


def test_backward_shape_mismatch():
    params = _random_params(3, 2, seed=4)
    _, cache = helpers.phi_forward((0, 1), params)
    bad_acc = {k: np.zeros((1,)) for k in params}
    with pytest.raises(neural.NeuralError):
        helpers.phi_backward(cache, 1.0, bad_acc)


def test_doubled_embeddings_change_phi_smoothly():
    # sanity: scaling embeddings is not an equivalence, but the value moves
    # and the gradient check still passes at the new point
    params = _random_params(3, 3, seed=10)
    s = (0, 1, 2)
    v1, _ = helpers.phi_forward(s, params)
    params2 = {k: (2.0 * v if k == "emb" else v.copy()) for k, v in params.items()}
    v2, _ = helpers.phi_forward(s, params2)
    assert v1 != v2
    _, cache = neural.phi_forward_batch([s], params2)
    ana = neural.phi_backward_batch(cache, np.ones(1))
    err = oracle.gradient_error(
        lambda: helpers.phi_forward(s, params2)[0], params2, ana, floor=1e-6
    )
    assert err < 1e-4


PACKING_CASES = {
    "mixed-lengths": dict(lengths=[1, 2, 3, 4, 5, 6, 7, 8] * 5, n_layers=1),
    "equal-lengths": dict(lengths=[5] * 12, n_layers=1),
    "length-one": dict(lengths=[1] * 6, n_layers=1),
    "two-layers": dict(lengths=[1, 2, 3, 4, 5, 6, 7, 8] * 3, n_layers=2),
}


@pytest.mark.parametrize("case", PACKING_CASES, ids=list(PACKING_CASES))
def test_packed_phi_matches_masked_reference(case):
    spec = PACKING_CASES[case]
    rng = np.random.default_rng(17)
    params = _random_params(20, 5, n_layers=spec["n_layers"], seed=17)
    sents = helpers.shuffled_batch(rng, 20, spec["lengths"])
    weights = rng.normal(size=len(sents))
    vals, cache = neural.phi_forward_batch(sents, params)
    ref_vals, ref_cache = helpers.masked_phi_forward_batch(sents, params)
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12)
    grads = neural.phi_backward_batch(cache, weights)
    ref = helpers.masked_phi_backward_batch(ref_cache, weights)
    assert grads.keys() == ref.keys()
    for k in ref:
        np.testing.assert_allclose(grads[k], ref[k], rtol=0, atol=1e-10, err_msg=k)


def test_packed_phi_reorders_with_its_batch():
    rng = np.random.default_rng(18)
    params = _random_params(20, 5, seed=18)
    sents = helpers.shuffled_batch(rng, 20, [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    perm = rng.permutation(len(sents))
    vals, _ = neural.phi_forward_batch(sents, params)
    permuted, _ = neural.phi_forward_batch([sents[j] for j in perm], params)
    assert permuted.tobytes() == vals[perm].tobytes()


def test_pack_sorts_longest_first_and_counts_live_rows():
    ids, n, order = neural.pack([(1,), (2, 3, 4), (5, 6), (7, 8, 9)])
    assert order.tolist() == [1, 3, 2, 0]  # stable among equal lengths
    assert n.tolist() == [4, 3, 2]
    assert ids.T.tolist() == [[2, 3, 4], [7, 8, 9], [5, 6, 0], [1, 0, 0]]
