"""Dynamic noise distribution: an autoregressive recurrent LM times the length prior.

p_noise(l, x^l) = pi_l * prod_i p(x_i | BOS, x_1..x_{i-1}). The recurrent
LM consumes an internal BOS symbol to condition the first word; no
end-of-sentence factor exists because length is priced entirely by pi.
Scoring, sampling, and the KL training step all run batched over padded
sentences sorted by length, computing only on the real tokens.

A DNCE step draws its noise sentences and takes the KL step under the
parameters from before the step. sample reads only its model and rng, so
trainer.noise_phase can run it on a worker thread, over copies of the
parameters, while the KL step updates them in place, bit for bit.
"""

from __future__ import annotations

import mmap

import numpy as np

from .corpus import CorpusError, LengthPrior
from .neural import lstm_backward, lstm_cell, lstm_forward, pack, real_tokens, sort_by_length

GRAD_CLIP_NORM = 5.0
BLOCK = 64  # words per block of the sampler's two-level search of the CDF
# SOFTMAX_FLOATS (1 MiB) only sizes a scratch buffer beside the whole (N, V) logits;
# the softmax is row-wise, so any block gives the same values. model.SCORE_FLOATS
# (32 MiB) bounds all that a chunk of TRF scoring keeps alive, and its size sets the
# GEMM shapes, so it is large: a whole d=16 acceptance-setting DNCE step is one chunk.
SOFTMAX_FLOATS = 2**17  # floats in a block of rows of the KL step's log-softmax


class NoiseModel:
    """Recurrent LM over V words; the embedding table has an extra BOS row."""

    def __init__(self, params, prior: LengthPrior, V):
        self.params = params
        self.prior = prior
        self.V = V
        self._logits = np.empty((0, V))

    @property
    def bos_id(self):
        return self.V

    def logits_buffer(self, rows):
        """A (rows, V) work array for the KL step's logits, reused from step
        to step. It grows at least twofold and lives in a mapping of its own,
        outside malloc's heap, so that whether a step's logits land on
        resident or fresh pages does not depend on the heap's layout; only
        the rows a step has written count in the process's memory."""
        if len(self._logits) < rows:
            cap = max(rows, 2 * len(self._logits))
            buf = mmap.mmap(-1, cap * self.V * 8, flags=mmap.MAP_PRIVATE)
            self._logits = np.frombuffer(buf, dtype=np.float64).reshape(cap, self.V)
        return self._logits[:rows]

    def drop_logits_buffer(self):
        """Unmap the work array of logits_buffer; the next step maps a new one."""
        self._logits = np.empty((0, self.V))


def init_noise_model(V, d, prior: LengthPrior, seed=0) -> NoiseModel:
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape)

    params = {
        "emb": u(V + 1, d),  # row V is BOS
        "W": u(d, 4 * d),
        "U": u(d, 4 * d),
        "b": u(4 * d),
        "Wo": u(d, V),
        "bo": u(V),
    }
    return NoiseModel(params, prior, V)


def _log_softmax(a, scratch):
    """Normalize the rows of `a` to log-probabilities in place; `scratch`,
    of a's shape, is left holding the exps of the max-shifted rows."""
    a -= a.max(axis=1, keepdims=True)
    a -= np.log(np.exp(a, out=scratch).sum(axis=1, keepdims=True))
    return a


def _forward(model: NoiseModel, sentences, reuse=False):
    """Shared forward pass over [BOS, x_1..x_{l-1}] in the packed layout:
    the sentences' word-sequence log-probabilities in input order, then the
    next-word log-probabilities at the real token positions only, in (t,
    column) order, normalized in blocks of rows through one small scratch
    buffer, so the (N, V) logits are the only V-wide array. With `reuse`
    they are written into model.logits_buffer and are valid until the
    model's next such pass."""
    ids, n, order = pack(sentences)
    real = real_tokens(n, ids.shape[1])
    inputs = np.empty_like(ids)
    inputs[0] = model.bos_id
    inputs[1:] = ids[:-1]
    p = model.params
    hs, cache = lstm_forward(p["emb"][inputs], n, p["W"], p["U"], p["b"])
    h = hs[real]
    logp = np.matmul(h, p["Wo"], out=model.logits_buffer(len(h)) if reuse else None)
    logp += p["bo"]
    rows = max(1, SOFTMAX_FLOATS // model.V)
    scratch = np.empty((min(rows, len(logp)), model.V))
    for block in np.split(logp, range(rows, len(logp), rows)):
        _log_softmax(block, scratch[: len(block)])
    targets = ids[real]
    tok = np.zeros(real.shape)
    tok[real] = logp[np.arange(len(logp)), targets]
    seq = np.empty(len(sentences))
    seq[order] = tok.sum(axis=0)
    return seq, inputs, real, targets, h, cache, logp


def seq_log_prob_batch(model: NoiseModel, sentences) -> np.ndarray:
    """Word-sequence log-probabilities, without the length-prior factor."""
    return _forward(model, sentences)[0] if sentences else np.zeros(0)


def sample_arrays(model: NoiseModel, count):
    """The two (count, V) work arrays of sample, for its `work` argument."""
    return np.empty((count, model.V)), np.empty((count, model.V))


def sample(model: NoiseModel, count, rng, work=None):
    """Draw `count` sentences: length from pi, then words autoregressively.

    Returns (sentences, log_p), where log_p[j] is draw j's word-sequence
    log-probability (length-prior factor excluded) read off the same
    log-softmax the draw used, so it agrees with seq_log_prob_batch on
    the draws to rounding. Deterministic given the rng state: lengths
    first, then one uniform per chain per step in fixed chain order. The
    chains are stepped longest first, so only the prefix of chains that
    have not reached their length computes at each step. `work`, if
    given, is what sample_arrays(model, count) returns, to be used in place
    of new arrays.
    """
    if count <= 0:
        return [], np.zeros(0)
    L = model.prior.max_length
    lengths = rng.choice(np.arange(1, L + 1), size=count, p=model.prior.probs)
    order, n = sort_by_length(lengths)
    T = len(n)
    p = model.params
    h = c = np.zeros((count, p["emb"].shape[1]))
    tokens = np.zeros((T, count), dtype=np.int64)
    log_p = np.zeros(count)
    prev = np.full(count, model.bos_id, dtype=np.int64)
    # (count, V) work buffers, the live rows filled in place at every step
    logp_buf, exp_buf = sample_arrays(model, count) if work is None else work
    starts = np.arange(0, model.V, BLOCK)
    for t in range(T):
        k = n[t]
        rows = np.arange(k)
        u = rng.random(count)[order[:k]]
        h, c = lstm_cell(p["emb"][prev[:k]] @ p["W"], h[:k], c[:k], p["U"], p["b"])
        logp, ex = logp_buf[:k], exp_buf[:k]
        np.matmul(h, p["Wo"], out=logp)
        logp += p["bo"]
        # _log_softmax's own steps, short of normalizing the rows
        logp -= logp.max(axis=1, keepdims=True)
        total = np.exp(logp, out=ex).sum(axis=1)
        # the first word whose unnormalized CDF reaches u * total, by block
        target = (u * total)[:, None]
        cum = np.cumsum(np.add.reduceat(ex, starts, axis=1), axis=1)
        blk = np.minimum(np.count_nonzero(cum < target, axis=1), len(starts) - 1)
        below = np.where(blk > 0, cum[rows, blk - 1], 0.0)[:, None]
        words = np.minimum(starts[blk, None] + np.arange(BLOCK), model.V - 1)
        within = np.cumsum(ex[rows[:, None], words], axis=1) + below
        prev = np.minimum(starts[blk] + np.count_nonzero(within < target, axis=1), model.V - 1)
        tokens[t, :k] = prev
        log_p[:k] += logp[rows, prev] - np.log(total)
    # back to draw order
    sents = [None] * count
    for j, row in zip(order.tolist(), tokens.T.tolist()):
        sents[j] = tuple(row[: lengths[j]])
    out = np.empty(count)
    out[order] = log_p
    return sents, out


def nll_and_grads(model: NoiseModel, sentences):
    """Mean per-sentence negative log-likelihood of the word sequences
    (length-prior factor excluded: it does not depend on the LM), its
    gradient w.r.t. all parameters, and the sentences' word-sequence
    log-probabilities, bit-identical to seq_log_prob_batch's."""
    if not sentences:
        raise CorpusError("empty minibatch")
    B = len(sentences)
    seq, inputs, real, targets, h, cache, logp = _forward(model, sentences, reuse=True)
    rows = np.arange(len(logp))
    nll = -float(logp[rows, targets].sum()) / B

    dlogits = np.exp(logp, out=logp)  # softmax, to become softmax - onehot(target)
    dlogits[rows, targets] -= 1.0
    dlogits *= 1.0 / B
    grads = {"Wo": h.T @ dlogits, "bo": dlogits.sum(axis=0)}
    dhs = np.zeros(cache["hs"].shape)
    dhs[real] = dlogits @ model.params["Wo"].T
    dW, dU, db, dx = lstm_backward(cache, dhs, dx=dhs)
    grads["W"], grads["U"], grads["b"] = dW, dU, db
    demb = np.zeros_like(model.params["emb"])
    np.add.at(demb, inputs[real], dx[real])
    grads["emb"] = demb
    return nll, grads, seq


def clip_global_norm(grads, max_norm=GRAD_CLIP_NORM):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def noise_train_step(model: NoiseModel, minibatch, lr) -> np.ndarray:
    """One SGD step on the minibatch NLL with global-norm clipping; returns
    seq_log_prob_batch of the minibatch under the parameters before it."""
    _, grads, log_p = nll_and_grads(model, minibatch)
    clip_global_norm(grads)
    for k, g in grads.items():
        model.params[k] -= lr * g
    return log_p
