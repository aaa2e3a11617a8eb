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
"""

from __future__ import annotations

import numpy as np


class NeuralError(ValueError):
    pass


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def init_phi_params(V, d, n_layers=1, seed=0):
    """Uniform [-0.1, 0.1] init for embeddings and both recurrent stacks."""
    if d < 1:
        raise NeuralError("dimension must be >= 1")
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape)

    params = {"emb": u(V, d)}
    for direction in ("fwd", "bwd"):
        for layer in range(n_layers):
            pre = "%s%d_" % (direction, layer)
            params[pre + "W"] = u(d, 4 * d)  # input weights, gates packed i|f|o|g
            params[pre + "U"] = u(d, 4 * d)  # recurrent weights
            params[pre + "b"] = u(4 * d)
    return params


def n_layers_of(params):
    n = 0
    while ("fwd%d_W" % n) in params:
        n += 1
    return n


def lstm_cell(a, h, c, U, b):
    """One step of the gated cell over a batch, gates packed i|f|o|g.

    a holds x @ W for the batch and is overwritten with the gate
    activations; returns the new hidden and cell states.
    """
    d = h.shape[1]
    a += h @ U
    a += b
    a[:, : 3 * d] = _sigmoid(a[:, : 3 * d])
    np.tanh(a[:, 3 * d :], out=a[:, 3 * d :])
    i, f, o, g = a[:, :d], a[:, d : 2 * d], a[:, 2 * d : 3 * d], a[:, 3 * d :]
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def lstm_forward(x, n, W, U, b):
    """Run a gated recurrent layer over x (T, B, d_in) where only the rows
    [:n[t]] are alive at step t.

    Each row must be alive on one unbroken run of steps, so n is
    non-increasing for sentences sorted longest first and non-decreasing
    for the same batch read backwards. A row keeps its state (zero before
    its first step) while it is not alive. Returns the hidden states
    (T, B, d), zero wherever a row is not alive, and the reverse-mode cache.
    """
    T, B, _ = x.shape
    d = U.shape[0]
    real = real_tokens(n, B)
    # x @ W at every live position as one GEMM, in step order, so the rows
    # of step t are gates[off[t]:off[t + 1]]; each step adds h @ U, then b
    gates = x[real] @ W
    off = np.concatenate([[0], np.cumsum(n)])
    hs = np.zeros((T, B, d))
    cs = np.zeros((T, B, d))
    zero = np.zeros((B, d))
    for t in range(T):
        k = n[t]
        h, c = (hs[t - 1, :k], cs[t - 1, :k]) if t else (zero[:k], zero[:k])
        hs[t, :k], cs[t, :k] = lstm_cell(gates[off[t] : off[t + 1]], h, c, U, b)
    cache = {"x": x, "n": n, "real": real, "off": off, "W": W, "U": U}
    cache.update(gates=gates, hs=hs, cs=cs)
    return hs, cache


def lstm_backward(cache, dhs):
    """Reverse-mode pass for lstm_forward; dhs is the gradient w.r.t. hs,
    read only where a row is alive."""
    x, n, real, off = cache["x"], cache["n"], cache["real"], cache["off"]
    W, U, gates, hs, cs = cache["W"], cache["U"], cache["gates"], cache["hs"], cache["cs"]
    T, B, d = hs.shape
    da = np.empty_like(gates)
    dh_next = np.zeros((B, d))
    dc_next = np.zeros((B, d))
    zero = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        k = n[t]
        a = gates[off[t] : off[t + 1]]
        i, f, o, g = a[:, :d], a[:, d : 2 * d], a[:, 2 * d : 3 * d], a[:, 3 * d :]
        c_prev = cs[t - 1, :k] if t else zero[:k]
        dh = dhs[t, :k] + dh_next[:k]
        tc = np.tanh(cs[t, :k])
        dc = dc_next[:k] + dh * o * (1.0 - tc * tc)
        da_t = da[off[t] : off[t + 1]]
        da_t[:, :d] = dc * g * i * (1.0 - i)
        da_t[:, d : 2 * d] = dc * c_prev * f * (1.0 - f)
        da_t[:, 2 * d : 3 * d] = dh * tc * o * (1.0 - o)
        da_t[:, 3 * d :] = dc * i * (1.0 - g * g)
        dh_next[:k] = da_t @ U.T
        dc_next[:k] = dc * f
    # the weight and input gradients over all live positions at once
    h_prev = np.concatenate([zero[: n[0]], hs[:-1][real[1:]]])
    dx = np.zeros(x.shape)
    dx[real] = da @ W.T
    return x[real].T @ da, h_prev.T @ da, da.sum(axis=0), dx


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


def phi_forward_batch(sentences, params):
    """Potential values for a batch of sentences plus the reverse-mode cache."""
    if not sentences:
        return np.zeros(0), None
    n_layers = n_layers_of(params)
    ids, n, order = pack(sentences)
    T, B = ids.shape
    real = real_tokens(n, B)
    e = params["emb"][ids] * real[:, :, None]
    caches, h = {}, []
    # the bwd stack reads the batch backwards: the rows still to start are the ones not alive
    for direction, step in (("fwd", 1), ("bwd", -1)):
        x, caches[direction] = e[::step], []
        for layer in range(n_layers):
            pre = "%s%d_" % (direction, layer)
            x, c = lstm_forward(x, n[::step], *(params[pre + k] for k in "WUb"))
            caches[direction].append(c)
        h.append(x[::step])
    hf, hb = h

    # hf and hb are zero off their sentence and e is zero on padding, so
    # only the pairs inside each sentence contribute
    vals = np.zeros(B)
    if T > 1:
        vals += np.einsum("tbd,tbd->b", hf[:-1], e[1:])
        vals += np.einsum("tbd,tbd->b", hb[1:], e[:-1])
    out = np.empty(B)
    out[order] = vals
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
    T = e.shape[0]
    w = np.asarray(weights, dtype=np.float64)[cache["order"]][None, :, None]
    grads = {}
    de = np.zeros_like(e)
    dhf = np.zeros_like(hf)
    dhb = np.zeros_like(hb)
    if T > 1:
        dhf[:-1] = w * e[1:]
        de[1:] += w * hf[:-1]
        dhb[1:] = w * e[:-1]
        de[:-1] += w * hb[1:]

    for direction, dh, step in (("fwd", dhf, 1), ("bwd", dhb, -1)):
        dx = dh[::step]
        for layer in range(cache["n_layers"] - 1, -1, -1):
            pre = "%s%d_" % (direction, layer)
            dW, dU, db, dx = lstm_backward(cache["caches"][direction][layer], dx)
            grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = dW, dU, db
        de += dx[::step]

    real = cache["real"]
    demb = np.zeros((cache["V"], e.shape[2]))
    np.add.at(demb, cache["ids"][real], de[real])
    grads["emb"] = demb
    return grads
