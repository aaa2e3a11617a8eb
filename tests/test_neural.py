import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trflm import model, neural, oracle, trainer
from trflm import noise as noise_mod
from trflm.corpus import length_prior

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


def test_sigmoid_into_out_bit_identical_to_masked_reference():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 5.0, 3000), [0.0, -0.0, 745.2, -745.2, np.inf, -np.inf]])
    ref = _masked_sigmoid(x).tobytes()
    out = np.empty_like(x)
    assert neural._sigmoid(x, out=out) is out
    assert out.tobytes() == ref
    assert neural._sigmoid(x, work=np.empty(2 * x.size)).tobytes() == ref
    # over a strided slice of its own input, as lstm_cell calls it
    a = np.stack([x, x, x], axis=1)
    gates = a[:, :2]
    assert neural._sigmoid(gates, out=gates) is gates
    assert [a[:, j].tobytes() for j in range(3)] == [ref, ref, x.tobytes()]


_SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2, np.inf, -np.inf]


@pytest.mark.parametrize("k,d", [(1, 1), (2, 16), (140, 200)])
def test_sigmoid_over_the_cells_gate_view_bit_identical(k, d):
    # lstm_cell's layout: the i|f|o columns of a (k, 4d) array, in place
    a = np.random.default_rng(k * d).normal(0.0, 5.0, (k, 4 * d))
    gates = a[:, : 3 * d]
    gates.flat[: len(_SIGMOID_EDGES)] = _SIGMOID_EDGES[: gates.size]
    before = a.copy()
    assert neural._sigmoid(gates, out=gates, work=np.empty(4 * k * d)) is gates
    assert gates.tobytes() == _masked_sigmoid(before[:, : 3 * d]).tobytes()
    assert a[:, 3 * d :].tobytes() == before[:, 3 * d :].tobytes()


def test_sigmoid_keeps_nan():
    a = np.array([[np.nan, 1.0, -np.nan, -1.0]])
    gates = a[:, :3]
    neural._sigmoid(gates, out=gates, work=np.empty(4))
    assert np.isnan(a[0, [0, 2]]).all()
    assert a[0, 1] == _masked_sigmoid(np.array([1.0]))[0] and a[0, 3] == -1.0


@pytest.mark.parametrize("k", [512, 2048])
def test_sigmoid_over_a_strided_view_buffers_one_operand(k):
    # The gate view is larger than numpy's 8192-element buffer, so each
    # operation with a strided operand buffers it: past the pos mask, at most
    # one such buffer may be live at a time.
    d = 16
    a = np.random.default_rng(k).normal(0.0, 5.0, (k, 4 * d))
    work = np.empty(4 * k * d)
    tracemalloc.start()
    try:
        neural._sigmoid(a[:, : 3 * d], out=a[:, : 3 * d], work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * k * d + 8192 * 8 + 4096


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
    # a backward pass uses its cache up, so each one has a fresh forward pass
    params = _random_params(3, 2, seed=6)

    def fresh():
        return helpers.phi_forward((0, 1, 2), params)[1]

    acc_ab = helpers.zero_grads(params)
    helpers.phi_backward(fresh(), 0.3, acc_ab)
    helpers.phi_backward(fresh(), 0.9, acc_ab)
    acc_sum = helpers.zero_grads(params)
    helpers.phi_backward(fresh(), 1.2, acc_sum)
    for k in acc_ab:
        assert np.allclose(acc_ab[k], acc_sum[k], atol=1e-12)


@pytest.mark.parametrize("concurrent", [False, True])
def test_second_backward_on_a_spent_cache_raises(monkeypatch, concurrent):
    # the first pass wrote its gate gradients over the cache's gates
    monkeypatch.setattr(neural, "CONCURRENT_WORK", 0 if concurrent else math.inf)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    sents = [(0, 1, 2), (2, 1)]
    params = _random_params(3, 2, n_layers=2, seed=4)
    _, cache = neural.phi_forward_batch(sents, params)
    neural.phi_backward_batch(cache, np.ones(2))
    with pytest.raises(neural.NeuralError, match="run the forward pass again"):
        neural.phi_backward_batch(cache, np.ones(2))


@pytest.mark.parametrize("concurrent", [False, True])
def test_backward_makes_no_gate_sized_array(monkeypatch, concurrent):
    # forward plus backward on one chunk peak below the forward cache plus
    # one (real tokens, 4d) array: the gate gradients go over the gates
    monkeypatch.setattr(neural, "CONCURRENT_WORK", 0 if concurrent else math.inf)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    d, lengths = 16, [12] * 40  # one length, so the batch has no padding
    rng = np.random.default_rng(29)
    params = _random_params(50, d, seed=29)
    sents = helpers.shuffled_batch(rng, 50, lengths)
    weights = rng.normal(size=len(sents))
    tracemalloc.start()
    try:
        _, cache = neural.phi_forward_batch(sents, params)
        kept = tracemalloc.get_traced_memory()[0]
        neural.phi_backward_batch(cache, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kept + sum(lengths) * 4 * d * 8, (peak, kept)


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


# The two directions of the BiLSTM run one after the other, or the bwd one
# on the worker thread; CONCURRENT_WORK and the allowed CPUs pick the path.


def _phi_on_path(sents, params, weights, concurrent):
    """Potential and gradient bytes from one path, and whether any layer
    of the bwd direction ran on a thread other than this one."""
    caller, elsewhere = threading.current_thread(), []

    def noted(fn):
        def call(*args, **kwargs):
            elsewhere.append(threading.current_thread() is not caller)
            return fn(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neural, "CONCURRENT_WORK", 0 if concurrent else math.inf)
        mp.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(neural, "lstm_forward", noted(neural.lstm_forward))
        mp.setattr(neural, "lstm_backward", noted(neural.lstm_backward))
        vals, cache = neural.phi_forward_batch(sents, params)
        grads = neural.phi_backward_batch(cache, weights)
    return vals.tobytes(), [(k, v.tobytes()) for k, v in grads.items()], any(elsewhere)


@settings(max_examples=40, deadline=None)
@given(
    n_layers=st.integers(1, 2),
    d=st.integers(1, 6),
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=9),
    seed=st.integers(0, 2**16),
)
@example(n_layers=1, d=3, lengths=[1], seed=0)  # B = 1 and T = 1
@example(n_layers=2, d=2, lengths=[4], seed=1)  # B = 1
@example(n_layers=2, d=4, lengths=[1, 1, 1], seed=2)  # T = 1
def test_concurrent_directions_bit_identical_to_serial(n_layers, d, lengths, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(9, d, n_layers=n_layers, seed=seed)
    sents = helpers.shuffled_batch(rng, 9, lengths)
    weights = rng.normal(size=len(sents))
    serial = _phi_on_path(sents, params, weights, concurrent=False)
    concurrent = _phi_on_path(sents, params, weights, concurrent=True)
    assert serial[2] is False and concurrent[2] is True
    assert concurrent[:2] == serial[:2]


# Scoring runs forward-only: no reverse-mode cache, and layer 0's input gates
# from per-call tables when given. overlap runs the bwd direction on the
# worker, with arrays made here, or serially, where lstm_forward makes its
# own.


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.integers(1, 2),
    d=st.integers(1, 6),
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=9),
    tables=st.booleans(),
    concurrent=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n_layers=1, d=3, lengths=[1], tables=True, concurrent=False, seed=0)  # B = T = 1
@example(n_layers=1, d=3, lengths=[1], tables=True, concurrent=True, seed=0)
@example(n_layers=2, d=2, lengths=[4], tables=True, concurrent=True, seed=1)  # B = 1
@example(n_layers=2, d=2, lengths=[4], tables=True, concurrent=False, seed=1)
@example(n_layers=1, d=4, lengths=[6, 1, 1], tables=True, concurrent=False, seed=2)  # one live row
@example(n_layers=2, d=4, lengths=[6, 2, 1], tables=False, concurrent=True, seed=3)
def test_forward_only_potentials_bit_identical_to_cached(
    n_layers, d, lengths, tables, concurrent, seed
):
    rng = np.random.default_rng(seed)
    params = _random_params(9, d, n_layers=n_layers, seed=seed)
    sents = helpers.shuffled_batch(rng, 9, lengths)
    want, _ = neural.phi_forward_batch(sents, params)
    caller, elsewhere = threading.current_thread(), []
    forward = neural.lstm_forward

    def noted(*args, **kwargs):
        elsewhere.append(threading.current_thread() is not caller)
        return forward(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neural, "CONCURRENT_WORK", 0 if concurrent else math.inf)
        mp.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(neural, "lstm_forward", noted)
        made = neural.input_tables(params) if tables else None
        got, cache = neural.phi_forward_batch(sents, params, True, made)
    assert cache is None
    assert any(elsewhere) is concurrent
    assert got.tobytes() == want.tobytes()


def test_input_table_rows_equal_the_rows_of_x_at_w():
    # a GEMM row is the same at any row count from two up; one row runs through gemv
    rng = np.random.default_rng(31)
    params = _random_params(40, 8, seed=31)
    fwd, bwd = neural.input_tables(params)
    ids = rng.integers(0, 40, 7)
    for table, W in ((fwd, params["fwd0_W"]), (bwd, params["bwd0_W"])):
        assert table.shape == (40, 32)
        assert table[ids].tobytes() == (params["emb"][ids] @ W).tobytes()


def _worker_failure(params, sents, call):
    """The exception call(params, sents) raises on the serial and on the
    concurrent path, as (type, message) each."""
    seen = []
    for work in (math.inf, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "CONCURRENT_WORK", work)
            mp.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
            with pytest.raises(Exception) as info:
                call(params, sents)
        seen.append((info.type, str(info.value)))
    return seen


def test_worker_exception_reaches_caller_with_its_type_and_message():
    sents = [(0, 1, 2), (2, 1)]
    params = _random_params(3, 2, seed=4)
    params["bwd0_W"] = np.zeros((2, 9))  # 4d = 8 gate columns expected
    serial, concurrent = _worker_failure(
        params, sents, lambda p, s: neural.phi_forward_batch(s, p)
    )
    assert concurrent == serial

    good = _random_params(3, 2, seed=4)
    _, cache = neural.phi_forward_batch(sents, good)
    cache["caches"]["bwd"][0]["U"] = np.zeros((3, 8))  # a shape mismatch in the bwd pass
    serial, concurrent = _worker_failure(
        good, sents, lambda p, s: neural.phi_backward_batch(cache, np.ones(len(s)))
    )
    assert concurrent == serial
    assert issubclass(concurrent[0], ValueError)
    # the worker still serves the next call
    assert _phi_on_path(sents, good, np.ones(2), concurrent=True)[2]


def _threads_after(monkeypatch, sents, params, cpus):
    """threading.active_count() after a forward and backward pass that
    starts from no worker, with the given allowed CPUs."""
    monkeypatch.setattr(neural, "_worker", None)
    monkeypatch.setattr(neural, "_worker_pid", None)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _, cache = neural.phi_forward_batch(sents, params)
    neural.phi_backward_batch(cache, np.ones(len(sents)))
    return threading.active_count()


def test_small_work_or_one_cpu_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(19)
    params = _random_params(20, 8, seed=19)
    sents = helpers.shuffled_batch(rng, 20, [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    before = threading.active_count()
    assert _work_of(sents, 8) < neural.CONCURRENT_WORK
    assert _threads_after(monkeypatch, sents, params, cpus=2) == before
    monkeypatch.setattr(neural, "CONCURRENT_WORK", 0)
    assert _threads_after(monkeypatch, sents, params, cpus=1) == before
    assert neural._worker is None
    try:  # the same call with two CPUs starts the one worker thread
        assert _threads_after(monkeypatch, sents, params, cpus=2) == before + 1
    finally:
        neural._worker.shutdown()


def _work_of(sents, d):
    return sum(map(len, sents)) * d * d


def test_size_rule_keeps_d16_chunks_serial_and_takes_d200_chunks_concurrent():
    # a scoring chunk holds at most SCORE_FLOATS // (16 d) real tokens
    def full_chunk_work(d):
        return model.SCORE_FLOATS // (16 * d) * d * d

    assert full_chunk_work(16) < neural.CONCURRENT_WORK <= full_chunk_work(200)


def test_blas_thread_count_is_read_from_the_library():
    # the tests run with one BLAS thread (conftest.py)
    get, _ = neural._blas()
    assert get() == 1


@pytest.mark.parametrize("blas", [2, None])
def test_unsettable_blas_stays_serial_and_a_set_count_is_put_back(monkeypatch, blas):
    # a BLAS whose thread count cannot be read and set keeps the BiLSTM
    # directions and the noise phase serial; one at two threads runs them
    # concurrently at one thread, and is back at two after each pair
    rng = np.random.default_rng(23)
    params = _random_params(20, 8, seed=23)
    sents = helpers.shuffled_batch(rng, 20, [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    noise = noise_mod.init_noise_model(20, 3, length_prior(sents, 8), seed=1)
    if blas is None:
        monkeypatch.setattr(neural, "_blas", lambda: None)
    else:
        fake = helpers.FakeBlas(blas)
        fake.install(monkeypatch)
    monkeypatch.setattr(neural, "_worker", None)
    monkeypatch.setattr(neural, "_worker_pid", None)
    monkeypatch.setattr(neural, "CONCURRENT_WORK", 0)
    monkeypatch.setattr(model, "SCORE_FLOATS", math.inf)
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    before = threading.active_count()
    try:
        _, cache = neural.phi_forward_batch(sents, params)
        neural.phi_backward_batch(cache, np.ones(len(sents)))
        trainer.noise_phase(noise, sents[:10], 30, 0.5, rng)
        if blas is None:
            assert threading.active_count() == before
            assert neural._worker is None
        else:  # one forward, one backward and one noise phase pair
            assert threading.active_count() == before + 1
            assert fake.threads == 2 and fake.sets == [1, 2] * 3
    finally:
        if neural._worker is not None:
            neural._worker.shutdown()


def test_overlap_runs_at_one_blas_thread_and_puts_two_back(monkeypatch):
    if neural._blas() is None:
        pytest.skip("numpy's BLAS thread count cannot be set here")
    get, put = neural._blas()
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 1})
    seen = []

    def read(fail=False):
        seen.append((threading.current_thread().name, get()))
        if fail:
            raise ValueError("failed")

    put(2)
    try:
        neural.overlap(read, read, True, dict)
        assert get() == 2
        for away, home in ((lambda: read(True), read), (read, lambda: read(True))):
            with pytest.raises(ValueError, match="failed"):
                neural.overlap(away, home, True, dict)
            assert get() == 2
    finally:
        put(1)
    assert [n for _, n in seen] == [1] * 6
    assert sum(name.startswith("trflm-worker") for name, _ in seen) == 3
