"""Nonlinear sentence potential from a bidirectional gated recurrent network.

The potential of a sentence is
    sum_{i=1}^{l-1} h_fwd[i] . e[i+1]  +  sum_{i=2}^{l} h_bwd[i] . e[i-1]
where e are word embeddings and h_fwd/h_bwd the final-layer hidden vectors
of the forward and backward recurrences. Forward evaluation and exact
reverse-mode gradients are implemented directly in numpy; everything runs
batched over padded sentences with masks, so per-sentence results are
independent of how sentences are grouped.
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


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def lstm_cell(x, h, c, W, U, b):
    """One step of the gated cell over a batch, gates packed i|f|o|g:
    returns the new hidden and cell states and the gate activations."""
    d = h.shape[1]
    a = x @ W + h @ U + b
    i = _sigmoid(a[:, :d])
    f = _sigmoid(a[:, d : 2 * d])
    o = _sigmoid(a[:, 2 * d : 3 * d])
    g = np.tanh(a[:, 3 * d :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new, (i, f, o, g)


def lstm_forward(x, mask, W, U, b):
    """Run a gated recurrent layer over x (T, B, d) with mask (T, B, 1).

    Masked steps pass state through unchanged, so zero-init state first
    updates at each sentence's own first in-range step. Returns the
    post-mask hidden states (T, B, d) and the cache for reverse mode.
    """
    T, B, d = x.shape
    h = np.zeros((B, d))
    c = np.zeros((B, d))
    hs = np.empty((T, B, d))
    cache = {
        "i": np.empty((T, B, d)),
        "f": np.empty((T, B, d)),
        "o": np.empty((T, B, d)),
        "g": np.empty((T, B, d)),
        "c_new": np.empty((T, B, d)),
        "c_prev": np.empty((T, B, d)),
        "h_prev": np.empty((T, B, d)),
        "x": x,
        "mask": mask,
        "W": W,
        "U": U,
    }
    for t in range(T):
        m = mask[t]
        h_new, c_new, (i, f, o, g) = lstm_cell(x[t], h, c, W, U, b)
        cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t] = i, f, o, g
        cache["c_new"][t] = c_new
        cache["c_prev"][t] = c
        cache["h_prev"][t] = h
        c = m * c_new + (1.0 - m) * c
        h = m * h_new + (1.0 - m) * h
        hs[t] = h
    return hs, cache


def lstm_backward(cache, dhs):
    """Reverse-mode pass for lstm_forward; dhs is the gradient w.r.t. hs."""
    x, mask = cache["x"], cache["mask"]
    W, U = cache["W"], cache["U"]
    T, B, d = x.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * d)
    dx = np.zeros_like(x)
    dh_next = np.zeros((B, d))
    dc_next = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        m = mask[t]
        dh = dhs[t] + dh_next
        dc = dc_next
        dh_new = m * dh
        dh_prev = (1.0 - m) * dh
        dc_new = m * dc
        dc_prev = (1.0 - m) * dc
        i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        tc = np.tanh(cache["c_new"][t])
        do = dh_new * tc
        dc_new = dc_new + dh_new * o * (1.0 - tc * tc)
        di = dc_new * g
        dg = dc_new * i
        df = dc_new * cache["c_prev"][t]
        dc_prev = dc_prev + dc_new * f
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g * g),
            ],
            axis=1,
        )
        dW += x[t].T @ da
        dU += cache["h_prev"][t].T @ da
        db += da.sum(axis=0)
        dx[t] = da @ W.T
        dh_prev = dh_prev + da @ U.T
        dh_next = dh_prev
        dc_next = dc_prev
    return dW, dU, db, dx


def _pad(sentences):
    B = len(sentences)
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    T = int(lengths.max())
    ids = np.zeros((T, B), dtype=np.int64)
    mask = np.zeros((T, B, 1))
    for j, s in enumerate(sentences):
        ids[: len(s), j] = s
        mask[: len(s), j, 0] = 1.0
    return ids, mask, lengths


def phi_forward_batch(sentences, params):
    """Potential values for a batch of sentences plus the reverse-mode cache."""
    if not sentences:
        return np.zeros(0), None
    n_layers = n_layers_of(params)
    ids, mask, lengths = _pad(sentences)
    T, B = ids.shape
    e = params["emb"][ids] * mask
    caches = {"fwd": [], "bwd": []}
    x = e
    for layer in range(n_layers):
        pre = "fwd%d_" % layer
        x, c = lstm_forward(x, mask, params[pre + "W"], params[pre + "U"], params[pre + "b"])
        caches["fwd"].append(c)
    hf = x
    x = e[::-1]
    rmask = mask[::-1]
    for layer in range(n_layers):
        pre = "bwd%d_" % layer
        x, c = lstm_forward(x, rmask, params[pre + "W"], params[pre + "U"], params[pre + "b"])
        caches["bwd"].append(c)
    hb = x[::-1]

    t_idx = np.arange(T)[:, None]
    pair_f = (t_idx + 1 < lengths[None, :]).astype(np.float64)[:, :, None]  # t in 0..l-2
    pair_b = ((t_idx >= 1) & (t_idx < lengths[None, :])).astype(np.float64)[:, :, None]
    vals = np.zeros(B)
    if T > 1:
        vals += np.einsum("tbd,tbd->b", hf[:-1] * pair_f[:-1], e[1:])
        vals += np.einsum("tbd,tbd->b", hb[1:] * pair_b[1:], e[:-1])
    cache = {
        "ids": ids,
        "mask": mask,
        "e": e,
        "hf": hf,
        "hb": hb,
        "pair_f": pair_f,
        "pair_b": pair_b,
        "caches": caches,
        "V": params["emb"].shape[0],
        "n_layers": n_layers,
    }
    return vals, cache


def phi_backward_batch(cache, weights):
    """Gradient of sum_j weights[j] * phi_j w.r.t. all parameters."""
    ids, mask, e = cache["ids"], cache["mask"], cache["e"]
    hf, hb = cache["hf"], cache["hb"]
    pair_f, pair_b = cache["pair_f"], cache["pair_b"]
    T, B = ids.shape
    w = np.asarray(weights, dtype=np.float64)[None, :, None]
    grads = {}
    de = np.zeros_like(e)
    dhf = np.zeros_like(hf)
    dhb = np.zeros_like(hb)
    if T > 1:
        dhf[:-1] = w * pair_f[:-1] * e[1:]
        de[1:] += w * pair_f[:-1] * hf[:-1]
        dhb[1:] = w * pair_b[1:] * e[:-1]
        de[:-1] += w * pair_b[1:] * hb[1:]

    dx = dhf
    for layer in range(cache["n_layers"] - 1, -1, -1):
        pre = "fwd%d_" % layer
        dW, dU, db, dx = lstm_backward(cache["caches"]["fwd"][layer], dx)
        grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = dW, dU, db
    de += dx
    dx = dhb[::-1]
    for layer in range(cache["n_layers"] - 1, -1, -1):
        pre = "bwd%d_" % layer
        dW, dU, db, dx = lstm_backward(cache["caches"]["bwd"][layer], dx)
        grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = dW, dU, db
    de += dx[::-1]

    de = de * mask
    demb = np.zeros((cache["V"], e.shape[2]))
    np.add.at(demb, ids.ravel(), de.reshape(-1, e.shape[2]))
    grads["emb"] = demb
    return grads
