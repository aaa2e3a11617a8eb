"""Dynamic noise distribution: an autoregressive recurrent LM times the length prior.

p_noise(l, x^l) = pi_l * prod_i p(x_i | BOS, x_1..x_{i-1}). The recurrent
LM consumes an internal BOS symbol to condition the first word; no
end-of-sentence factor exists because length is priced entirely by pi.
Scoring, sampling, and the KL training step all run batched over padded
sentences.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusError, LengthPrior
from .neural import _pad, lstm_backward, lstm_cell, lstm_forward

GRAD_CLIP_NORM = 5.0


class NoiseModel:
    """Recurrent LM over V words; the embedding table has an extra BOS row."""

    def __init__(self, params, prior: LengthPrior, V):
        self.params = params
        self.prior = prior
        self.V = V

    @property
    def bos_id(self):
        return self.V


def init_noise_params(V, d, seed=0):
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape)

    return {
        "emb": u(V + 1, d),  # row V is BOS
        "W": u(d, 4 * d),
        "U": u(d, 4 * d),
        "b": u(4 * d),
        "Wo": u(d, V),
        "bo": u(V),
    }


def init_noise_model(V, d, prior: LengthPrior, seed=0) -> NoiseModel:
    return NoiseModel(init_noise_params(V, d, seed), prior, V)


def _log_softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _forward(model: NoiseModel, sentences):
    """Shared forward pass: hidden states over [BOS, x_1..x_{l-1}]."""
    ids, mask, lengths = _pad(sentences)
    T, B = ids.shape
    inputs = np.empty_like(ids)
    inputs[0] = model.bos_id
    inputs[1:] = ids[:-1]
    x = model.params["emb"][inputs] * mask
    hs, cache = lstm_forward(x, mask, model.params["W"], model.params["U"], model.params["b"])
    logits = hs @ model.params["Wo"] + model.params["bo"]
    return ids, inputs, mask, lengths, hs, cache, logits


def seq_log_prob_batch(model: NoiseModel, sentences) -> np.ndarray:
    """Word-sequence log-probabilities, without the length-prior factor."""
    if not sentences:
        return np.zeros(0)
    ids, _, mask, _, _, _, logits = _forward(model, sentences)
    # gather the target logit first; elementwise normalization commutes
    # with the gather, so this matches the full log-softmax bit for bit
    # while only materializing (T, B) arrays
    m = logits.max(axis=-1)
    lse = np.log(np.exp(logits - m[:, :, None]).sum(axis=-1))
    tok = np.take_along_axis(logits, ids[:, :, None], axis=2)[:, :, 0] - m - lse
    return (tok * mask[:, :, 0]).sum(axis=0)


def sample(model: NoiseModel, count, rng):
    """Draw `count` sentences: length from pi, then words autoregressively.

    Returns (sentences, log_p), where log_p[j] is draw j's word-sequence
    log-probability (length-prior factor excluded) read off the same
    log-softmax the draw used, so it agrees with seq_log_prob_batch on
    the draws to rounding. Deterministic given the rng state: lengths first, then one
    uniform per chain per step in fixed chain order.
    """
    if count <= 0:
        return [], np.zeros(0)
    L = model.prior.max_length
    lengths = rng.choice(np.arange(1, L + 1), size=count, p=model.prior.probs)
    T = int(lengths.max())
    p = model.params
    d = p["emb"].shape[1]
    h = np.zeros((count, d))
    c = np.zeros((count, d))
    tokens = np.zeros((T, count), dtype=np.int64)
    log_p = np.zeros(count)
    prev = np.full(count, model.bos_id, dtype=np.int64)
    rows = np.arange(count)
    # (count, V) work buffers, filled in place at every step
    logp = np.empty((count, model.V))
    cdf = np.empty((count, model.V))
    below = np.empty((count, model.V), dtype=bool)
    for t in range(T):
        h, c, _ = lstm_cell(p["emb"][prev], h, c, p["W"], p["U"], p["b"])
        np.matmul(h, p["Wo"], out=logp)
        logp += p["bo"]
        logp -= logp.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp, out=cdf).sum(axis=1, keepdims=True))
        np.cumsum(np.exp(logp, out=cdf), axis=1, out=cdf)
        u = rng.random(count)
        np.less(cdf, u[:, None], out=below)
        idx = np.minimum(np.count_nonzero(below, axis=1), model.V - 1)
        tokens[t] = idx
        log_p += logp[rows, idx] * (t < lengths)
        prev = idx
    return [tuple(row[:l]) for row, l in zip(tokens.T.tolist(), lengths)], log_p


def nll_and_grads(model: NoiseModel, sentences):
    """Mean per-sentence negative log-likelihood of the word sequences
    (length-prior factor excluded: it does not depend on the LM) and its
    gradient w.r.t. all parameters."""
    if not sentences:
        raise CorpusError("empty minibatch")
    B = len(sentences)
    ids, inputs, mask, _, hs, cache, logits = _forward(model, sentences)
    T = ids.shape[0]
    logp = _log_softmax(logits)
    tok = np.take_along_axis(logp, ids[:, :, None], axis=2)[:, :, 0]
    nll = -float((tok * mask[:, :, 0]).sum()) / B

    dlogits = np.exp(logp)  # softmax, to become softmax - onehot(target)
    flat = dlogits.reshape(-1, model.V)
    flat[np.arange(T * B), ids.ravel()] -= 1.0
    dlogits *= mask / B
    grads = {
        "Wo": np.einsum("tbd,tbv->dv", hs, dlogits),
        "bo": dlogits.sum(axis=(0, 1)),
    }
    dhs = dlogits @ model.params["Wo"].T
    dW, dU, db, dx = lstm_backward(cache, dhs)
    grads["W"], grads["U"], grads["b"] = dW, dU, db
    dx = dx * mask
    demb = np.zeros_like(model.params["emb"])
    np.add.at(demb, inputs.ravel(), dx.reshape(-1, dx.shape[2]))
    grads["emb"] = demb
    return nll, grads


def clip_global_norm(grads, max_norm=GRAD_CLIP_NORM):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def noise_train_step(model: NoiseModel, minibatch, lr) -> NoiseModel:
    """One SGD step on the minibatch NLL with global-norm clipping."""
    _, grads = nll_and_grads(model, minibatch)
    clip_global_norm(grads)
    for k, g in grads.items():
        model.params[k] -= lr * g
    return model
