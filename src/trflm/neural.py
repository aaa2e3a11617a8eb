"""Nonlinear sentence potential from a bidirectional gated recurrent network.

The potential of a sentence is
    sum_{i=1}^{l-1} h_fwd[i] . e[i+1]  +  sum_{i=2}^{l} h_bwd[i] . e[i-1]
where e are word embeddings and h_fwd/h_bwd the final-layer hidden vectors
of the forward and backward recurrences. Forward evaluation and exact
reverse-mode gradients are implemented directly in numpy. A batch is laid
out padded and sorted by length, longest first, so the rows still inside
their sentence at any step are a prefix of the batch and every recurrent
step computes on that prefix only. Results come back in input order, and
per-sentence results do not depend on how sentences are grouped beyond
rounding.

The two directions are independent. With a batch of at least
CONCURRENT_WORK real tokens x d^2, the bwd direction of each layer runs on
one persistent worker thread while the calling thread runs the fwd one
(overlap, whose rule also asks for two allowed CPUs and a BLAS whose thread
count it can set, to one for the pair); numpy's array operations and BLAS
release the interpreter lock, so the two overlap. Each direction does the
operations it does alone, and the results are combined in the same fixed
order (fwd, then bwd), so potentials and gradients are bit-identical
either way. The worker's forward arrays are made on the calling thread,
each step writes into a work array made once per layer, and a backward
layer writes its gate gradients over the gates and its input gradient over
its output gradient, so the worker adds only its own BLAS buffer, thread
and small heap (see README.md). A backward pass thus uses its forward cache up.

Scoring runs the same recurrence forward-only, keeping only each layer's
hidden states; layer 0 may gather each step's input gates from a per-call
(V, 4d) table, emb @ W, whose rows are the same GEMM rows, so potentials
are bit-identical to the cached pass.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np


# Real tokens x d^2 of a batch from which its two directions run concurrently.
# On a 2-CPU VM with one BLAS thread, batches above it ran 1.5-1.9 times as
# fast (d = 200, 1282 tokens: 5.1e7); below it the hand-off can cost more
# than it saves: 80-360-token rescoring calls at d = 200 (3e6-1.4e7) ran 13%
# slower in the benchmark's score pairs, a d = 16 step of 300 sentences
# (1.8e6) gained nothing, and d <= 64 batches of up to 1300 tokens ran up
# to 1.5 times as slow while the host was busy.
CONCURRENT_WORK = 2 * 10**7


class NeuralError(ValueError):
    pass


def _sigmoid(x, out=None, work=None):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows.

    The result goes to out if given, which may be x itself, and which holds
    the denominator until then. work, if given, is a 1-d float array of at
    least x.size elements that holds the numerator in place of a new array.
    numpy runs an operation on a strided view (the cell's gate columns)
    through a buffer of up to 8192 elements per strided operand; here each
    operation has at most one, which the memory bound of the perplexity test
    depends on. The numerator max(e^-|x|, x >= 0) is exact: e^-|x| <= 1, so
    it is 1.0 where x >= 0 and e^x (or its underflow to 0) below."""
    out = np.empty(x.shape) if out is None else out
    work = np.empty(x.size) if work is None else work
    e = work[: x.size].reshape(x.shape)
    pos = x >= 0  # read before out, which may be x, is written
    np.copysign(x, -1.0, out=e)
    np.exp(e, out=e)
    den = np.add(1.0, e, out=out)
    np.maximum(e, pos, out=e)
    np.divide(e, den, out=e)
    out[...] = e
    return out


def phi_shapes(V, d, n_layers=1):
    """Name -> shape of each phi array in draw order: emb, then the fwd layers, then the bwd."""
    shapes = {"emb": (V, d)}
    for direction in ("fwd", "bwd"):
        for layer in range(n_layers):
            pre = "%s%d_" % (direction, layer)
            shapes[pre + "W"] = (d, 4 * d)  # input weights, gates packed i|f|o|g
            shapes[pre + "U"] = (d, 4 * d)  # recurrent weights
            shapes[pre + "b"] = (4 * d,)
    return shapes


def init_phi_params(V, d, n_layers=1, seed=0):
    """Uniform [-0.1, 0.1] init for embeddings and both recurrent stacks."""
    if d < 1:
        raise NeuralError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return {k: rng.uniform(-0.1, 0.1, shape) for k, shape in phi_shapes(V, d, n_layers).items()}


def n_layers_of(params):
    """One more than the highest layer index any name of params has, at least 1."""
    layers = [int(m[1]) for m in map(re.compile(r"(?:fwd|bwd)(\d+)_").match, params) if m]
    return max(layers, default=0) + 1


def lstm_cell(a, h, c, U, b, out=None):
    """One step of the gated cell over a batch, gates packed i|f|o|g.

    a holds x @ W for the batch and is overwritten with the gate
    activations; returns the new hidden and cell states. out, if given, is
    (h_new, c_new, work): the states are written into h_new and c_new, which
    may be h and c, and work, a 1-d float array of at least 4 * len(a) * d
    elements, holds the step's intermediates, so that the step makes no new
    array the size of its rows.
    """
    k, d = h.shape
    h_new, c_new, work = out or (np.empty((k, d)), np.empty((k, d)), np.empty(4 * k * d))
    a += np.matmul(h, U, out=work[: 4 * k * d].reshape(k, 4 * d))
    a += b
    _sigmoid(a[:, : 3 * d], out=a[:, : 3 * d], work=work)
    np.tanh(a[:, 3 * d :], out=a[:, 3 * d :])
    i, f, o, g = a[:, :d], a[:, d : 2 * d], a[:, 2 * d : 3 * d], a[:, 3 * d :]
    c_new = np.multiply(f, c, out=c_new)  # f * c + i * g
    c_new += np.multiply(i, g, out=work[: k * d].reshape(k, d))
    h_new = np.tanh(c_new, out=h_new)  # o * tanh(c_new)
    h_new *= o
    return h_new, c_new


def lstm_forward(x, n, W, U, b, out=None, forward_only=False):
    """Run a gated recurrent layer over x (T, B, d), as wide as the layer,
    where only the rows [:n[t]] are alive at step t.

    Each row must be alive on one unbroken run of steps, so n is
    non-increasing for sentences sorted longest first and non-decreasing
    for the same batch read backwards. A row keeps its state (zero before
    its first step) while it is not alive. Returns the hidden states
    (T, B, d), zero wherever a row is not alive, and the reverse-mode cache,
    or None when forward_only: then the cell state lives in one (B, d) row,
    which each step updates in place, and only the hidden states are kept.

    x may instead be (T, B) word ids, with W a per-word table of input
    gates (input_tables): the rows W[x[t, :n[t]]] are then step t's input
    gates, gathered into a (B, 4d) work array, in place of the rows of x @ W.
    The ids are not checked; an id past the table's end reads its last row.
    out, if given, holds the arrays forward_arrays makes, to be used in
    place of new ones.
    """
    T, B = x.shape[:2]
    d = U.shape[0]
    gates, hs, cs, work = out or forward_arrays(n, B, d, forward_only, x.ndim == 2)
    off = np.concatenate([[0], np.cumsum(n)])
    if x.ndim == 3:
        # x @ W at every live position as one GEMM, in step order, so the rows
        # of step t are gates[off[t]:off[t + 1]]; each step adds h @ U, then b.
        # The GEMM's operand, x[real], is gathered into hs, zeroed again after
        operand = _gather(x, n, hs.reshape(T * B, d))
        np.matmul(operand, W, out=gates)
        operand.fill(0.0)
    for t in range(T):
        k = n[t]
        # at t = 0 the states read are hs[-1] and cs[-1], still zero; the
        # cell reads h and c before it writes, so they may be the ones it writes
        h, c = hs[t - 1, :k], cs[(t - 1) % len(cs), :k]
        a = (gates[off[t] : off[t + 1]] if x.ndim == 3
             else np.take(W, x[t, :k], axis=0, out=gates[:k], mode="clip"))
        lstm_cell(a, h, c, U, b, out=(hs[t, :k], cs[t % len(cs), :k], work))
    if forward_only:
        return hs, None
    cache = {"x": x, "n": n, "off": off, "W": W, "U": U}
    cache.update(gates=gates, hs=hs, cs=cs)
    return hs, cache


def forward_arrays(n, B, d, forward_only=False, table=False):
    """New arrays for lstm_forward: the input gates, zeroed hs (T, B, d),
    zeroed cs, and the cell's work array. The gates are (real tokens, 4d),
    or (B, 4d) step rows when they come from a table; cs is (T, B, d), or
    one (1, B, d) row when forward_only."""
    T, N = len(n), int(n.sum())
    gates = np.empty((B if table else N, 4 * d))
    cs = np.zeros((1 if forward_only else T, B, d))
    return gates, np.zeros((T, B, d)), cs, np.empty(4 * B * d)


def lstm_backward(cache, dhs, dx=None):
    """Reverse-mode pass for lstm_forward; dhs is the gradient w.r.t. hs,
    read only where a row is alive. Returns (dW, dU, db, dx).

    dx, if given, is the C-ordered array the input gradient is written to;
    it may be dhs itself, which is read only before dx is written. The gate
    gradients are written over the cache's gates, each step's rows once the
    step has read them for the last time, so the pass uses the cache up: it
    takes the gates out of it, and a second pass raises NeuralError.
    """
    if "gates" not in cache:
        raise NeuralError("the cache was used up by a backward pass; run the forward pass again")
    x, n, off = cache["x"], cache["n"], cache["off"]
    W, U, hs, cs = cache["W"], cache["U"], cache["hs"], cache["cs"]
    T, B, d = hs.shape
    # checked before the gates are taken, so a call that fails leaves the cache as it was
    if W.shape != (x.shape[2], 4 * d) or U.shape != (d, 4 * d) or dhs.shape != hs.shape:
        raise NeuralError("weights or gradient do not fit the cache of a %d-wide layer" % d)
    da = cache.pop("gates")
    dx = np.empty(x.shape) if dx is None else dx
    dh_next = np.zeros((B, d))
    dc_next = np.zeros((B, d))
    zero = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        k = n[t]
        a = da[off[t] : off[t + 1]]
        i, f, o, g = a[:, :d], a[:, d : 2 * d], a[:, 2 * d : 3 * d], a[:, 3 * d :]
        c_prev = cs[t - 1, :k] if t else zero[:k]
        dh = dhs[t, :k] + dh_next[:k]
        tc = np.tanh(cs[t, :k])
        dc = dc_next[:k] + dh * o * (1.0 - tc * tc)
        # each right side is whole before its write; i's gradient waits in
        # da_i because g's still reads i
        da_i = dc * g * i * (1.0 - i)
        dc_next[:k] = dc * f
        f[...] = dc * c_prev * f * (1.0 - f)
        o[...] = dh * tc * o * (1.0 - o)
        g[...] = dc * i * (1.0 - g * g)
        i[...] = da_i
        dh_next[:k] = a @ U.T
    # the weight and input gradients over all live positions at once, with
    # dx's memory as the (real tokens, d) scratch of each product's operand
    rows = dx.reshape(T * B, -1)
    dW = _gather(x, n, rows).T @ da
    dU = _gather(hs, n, rows, shift=1).T @ da
    np.matmul(da, W.T, out=rows[: off[-1]])
    _spread(rows, n, B)
    return dW, dU, da.sum(axis=0), dx


def _gather(x, n, out, shift=0):
    """Into out and returned: the rows x[t - shift, :n[t]] for each step t,
    in step order (zero where t - shift < 0). With shift 0 that is x[real]."""
    off = 0
    for t, k in enumerate(n):
        out[off : off + k] = x[t - shift, :k] if t >= shift else 0.0
        off += k
    return out[:off]


def _spread(rows, n, B):
    """Move the per-step rows packed at the top of rows (T * B, d) to their
    places, step t at [t * B, t * B + n[t]], and zero the rest. Each block
    moves down or stays, so going from the last step back reads every block
    before it is overwritten."""
    off = np.concatenate([[0], np.cumsum(n)])
    for t in range(len(n) - 1, -1, -1):
        k = n[t]
        rows[t * B : t * B + k] = rows[off[t] : off[t] + k]
        rows[t * B + k : (t + 1) * B] = 0.0


def sort_by_length(lengths):
    """(order, n): the stable longest-first order of a batch and, for each
    step t below the longest length, the number n[t] of rows still alive."""
    order = np.argsort(-lengths, kind="stable")
    n = (lengths[:, None] > np.arange(lengths[order[0]])).sum(axis=0)
    return order, n


def pack(sentences):
    """Padded (T, B) ids with the sentences sorted by length, longest
    first (stable), so the real tokens at step t are the columns [:n[t]].

    Returns (ids, n, order): column j holds sentences[order[j]].
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    order, n = sort_by_length(lengths)
    ids = np.zeros((len(n), len(sentences)), dtype=np.int64)
    for col, j in enumerate(order):
        ids[: lengths[j], col] = sentences[j]
    return ids, n, order


def real_tokens(n, B):
    """(T, B) boolean mask of the real token positions of a packed batch."""
    return np.arange(B) < n[:, None]


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas():
    """(get, set): the calls that read and set the thread count of the
    OpenBLAS bundled with numpy, or None where there are not both."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            put = getattr(lib, symbol.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _work(n, d):
    return int(n.sum()) * d * d


# the one worker thread, made at the first concurrent call (and again in a
# forked child, which has the executor but not its thread)
_worker = None
_worker_pid = None


def overlap(away, home, fits, away_arrays):
    """(away(), home()), two calls neither of which writes what the other
    reads, other than under a lock.

    They run one after the other on this thread, away first, unless all of
    these hold: fits (the caller's size rule for the pair), at least two
    allowed CPUs, and a BLAS whose thread count can be read and set. Then
    away runs on the worker thread while this one calls home, both at one
    BLAS thread: a count other than 1 is set to 1 for the pair and put back
    once both calls are done, whether or not either raised, since two
    threads each spreading their products over the CPUs would contend for
    them. away also gets the keyword arguments away_arrays() returns: its
    large arrays, made on this thread so that they come from the heap the
    rest of the program uses, not from one the worker would grow and keep
    for itself.
    """
    global _worker, _worker_pid
    blas = _blas() if fits and _cpus() >= 2 else None
    if blas is None:
        return away(), home()
    get, put = blas
    threads = get()
    if threads != 1:
        put(1)
    try:
        if _worker_pid != os.getpid():  # first use, or a forked child without the thread
            _worker, _worker_pid = ThreadPoolExecutor(1, "trflm-worker"), os.getpid()
        there = _worker.submit(away, **away_arrays())
        try:
            here = home()
        except BaseException:
            there.exception()  # the worker is done with the shared arrays before this unwinds
            raise
        return there.result(), here
    finally:
        if threads != 1:
            put(threads)


def _layer(params, direction, layer):
    pre = "%s%d_" % (direction, layer)
    return params[pre + "W"], params[pre + "U"], params[pre + "b"]


def input_tables(params):
    """(fwd, bwd): layer 0's input gates for every word, emb @ W, one (V, 4d)
    GEMM each, so a row equals that word's row of any x @ W of two rows or
    more (a one-row product runs through gemv, so V must be 2 or more)."""
    emb = params["emb"]
    V, d = emb.shape
    bwd, fwd = overlap(
        functools.partial(np.matmul, emb, params["bwd0_W"]),
        functools.partial(np.matmul, emb, params["fwd0_W"]),
        V * d * d >= CONCURRENT_WORK,
        lambda: {"out": np.empty((V, 4 * d))},
    )
    return fwd, bwd


def phi_forward_batch(sentences, params, forward_only=False, tables=None):
    """Potential values for a batch of sentences plus the reverse-mode cache.

    When forward_only, the cache is None, and layer 0 takes its input gates
    from tables, input_tables(params), if given (a backward pass needs
    x @ W); the values are the same."""
    if not sentences:
        return np.zeros(0), None
    n_layers = n_layers_of(params)
    ids, n, order = pack(sentences)
    T, B = ids.shape
    real = real_tokens(n, B)
    e = params["emb"][ids] * real[:, :, None]
    d = e.shape[2]
    # the bwd stack reads the batch backwards: the rows still to start are the ones not alive
    hf, hb, nb = e, e[::-1], n[::-1]
    caches = {"fwd": [], "bwd": []}
    for layer in range(n_layers):
        (Wf, Uf, bf), (Wb, Ub, bb) = _layer(params, "fwd", layer), _layer(params, "bwd", layer)
        table = forward_only and layer == 0 and tables is not None
        if table:
            (hf, Wf), (hb, Wb) = (ids, tables[0]), (ids[::-1], tables[1])
        (hb, cb), (hf, cf) = overlap(
            functools.partial(lstm_forward, hb, nb, Wb, Ub, bb, forward_only=forward_only),
            functools.partial(lstm_forward, hf, n, Wf, Uf, bf, forward_only=forward_only),
            _work(n, d) >= CONCURRENT_WORK,
            lambda: {"out": forward_arrays(nb, B, d, forward_only, table)},
        )
        caches["fwd"].append(cf)
        caches["bwd"].append(cb)
    hb = hb[::-1]

    # hf and hb are zero off their sentence and e is zero on padding, so
    # only the pairs inside each sentence contribute
    vals = np.zeros(B)
    if T > 1:
        vals += np.einsum("tbd,tbd->b", hf[:-1], e[1:])
        vals += np.einsum("tbd,tbd->b", hb[1:], e[:-1])
    out = np.empty(B)
    out[order] = vals
    if forward_only:
        return out, None
    cache = {
        "ids": ids,
        "real": real,
        "order": order,
        "e": e,
        "hf": hf,
        "hb": hb,
        "caches": caches,
        "V": params["emb"].shape[0],
        "n_layers": n_layers,
    }
    return out, cache


def phi_backward_batch(cache, weights):
    """Gradient of sum_j weights[j] * phi_j w.r.t. all parameters."""
    e, hf, hb = cache["e"], cache["hf"], cache["hb"]
    T, _, d = e.shape
    w = np.asarray(weights, dtype=np.float64)[cache["order"]][None, :, None]
    # each direction's gradient w.r.t. its hidden states, in its own step
    # order; its layers write their input gradients over it, top down
    dxf = np.zeros(hf.shape)
    dxb = np.zeros(hb.shape)
    for t in range(T - 1):  # by rows: a product broadcast over all of e buffers as much again
        np.multiply(w[0], e[t + 1], out=dxf[t])
        np.multiply(w[0], e[t], out=dxb[T - 2 - t])
    gf, gb = {}, {}
    for layer in range(cache["n_layers"] - 1, -1, -1):
        cf, cb = cache["caches"]["fwd"][layer], cache["caches"]["bwd"][layer]
        (*wb, dxb), (*wf, dxf) = overlap(
            functools.partial(lstm_backward, cb, dxb, dxb),
            functools.partial(lstm_backward, cf, dxf, dxf),
            _work(cf["n"], d) >= CONCURRENT_WORK,
            dict,
        )
        for grads, direction, g, c in ((gf, "fwd", wf, cf), (gb, "bwd", wb, cb)):
            pre = "%s%d_" % (direction, layer)
            grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = g
            del c["x"], c["hs"], c["cs"]  # spent; the top layer's hs live on as hf and hb
    # made once both directions are done, so that it is not alive while they run
    de = np.zeros_like(e)
    if T > 1:
        de[1:] += w * hf[:-1]
        de[:-1] += w * hb[1:]
    de += dxf
    de += dxb[::-1]
    grads = {**gf, **gb}

    real = cache["real"]
    demb = np.zeros((cache["V"], d))
    np.add.at(demb, cache["ids"][real], de[real])
    grads["emb"] = demb
    return grads
