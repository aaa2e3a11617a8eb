"""Dynamic noise distribution: an autoregressive recurrent LM times the length prior.

p_noise(l, x^l) = pi_l * prod_i p(x_i | BOS, x_1..x_{i-1}). The recurrent
LM consumes an internal BOS symbol to condition the first word; no
end-of-sentence factor exists because length is priced entirely by pi.
Scoring, sampling, and the KL training step all run batched over padded
sentences sorted by length, computing only on the real tokens.

The sampler steps its chains in blocks of consecutive chains, longest
first, each block through all of its steps with its own state and two
(rows, V) work arrays, so its memory does not grow with the draw. Its rng
is read before any block runs, so the blocks can be stepped in any order,
on any thread: a DNCE step draws its noise sentences and takes the KL step
under the parameters from before the step, and trainer.noise_phase has a
worker thread step blocks over copies of the parameters while this thread
takes the KL step, which updates them in place, and then steps the blocks
that are left, bit for bit.
"""

from __future__ import annotations

import threading

import numpy as np

from .corpus import CorpusError, LengthPrior
from .neural import lstm_backward, lstm_cell, lstm_forward, pack, real_tokens, sort_by_length

GRAD_CLIP_NORM = 5.0
BLOCK = 64  # words per block of the sampler's two-level search of the CDF
# Three float budgets, each for what it bounds:
# - SOFTMAX_FLOATS (1 MiB) only sizes a scratch buffer beside the whole (N, V)
#   logits; the softmax is row-wise, so any block gives the same values.
# - SAMPLE_FLOATS (4 MiB) sizes each of a sampler block's two work arrays, R =
#   SAMPLE_FLOATS // V chains wide (262 at V = 1998). Any R gives the same draws,
#   but R sets the GEMM shapes and how a draw splits between two threads: the d=16
#   acceptance setting's 200 chains stay one block, as they were one draw before,
#   and the paper setting's 900 make four.
# - model.SCORE_FLOATS (32 MiB) bounds a TRF gradient chunk's forward cache (scoring
#   keeps less), and its size sets the GEMM shapes, so it is large: a whole d=16 DNCE
#   step is one chunk. Scoring's input tables and trainer.noise_phase's V-wide arrays
#   on two threads are held to it as well.
SOFTMAX_FLOATS = 2**17  # floats in a block of rows of the KL step's log-softmax
SAMPLE_FLOATS = 2**19  # floats in each of a sampler block's two work arrays


class NoiseModel:
    """Recurrent LM over V words; the embedding table has an extra BOS row."""

    def __init__(self, params, prior: LengthPrior):
        self.params = params
        self.prior = prior

    @property
    def V(self):
        return len(self.params["bo"])

    @property
    def bos_id(self):
        return self.V


def param_shapes(V, d):
    """Name -> shape of every noise LM array, in init's draw order; emb's row V is BOS."""
    d4 = 4 * d  # the four gates i|f|o|g, packed
    return {"emb": (V + 1, d), "W": (d, d4), "U": (d, d4), "b": (d4,), "Wo": (d, V), "bo": (V,)}


def init_noise_model(V, d, prior: LengthPrior, seed=0) -> NoiseModel:
    rng = np.random.default_rng(seed)
    return NoiseModel({k: rng.uniform(-0.1, 0.1, s) for k, s in param_shapes(V, d).items()}, prior)


def _log_softmax(a, scratch):
    """Normalize the rows of `a` to log-probabilities in place; `scratch`,
    of a's shape, is left holding the exps of the max-shifted rows."""
    a -= a.max(axis=1, keepdims=True)
    a -= np.log(np.exp(a, out=scratch).sum(axis=1, keepdims=True))
    return a


def _forward(model: NoiseModel, sentences):
    """Shared forward pass over [BOS, x_1..x_{l-1}] in the packed layout:
    the sentences' word-sequence log-probabilities in input order, then the
    next-word log-probabilities at the real token positions only, in (t,
    column) order, normalized in blocks of rows through one small scratch
    buffer, so the (N, V) logits are the only V-wide array. They are the
    first N rows of a (len(sentences) * L, V) array, L the prior's longest
    length, so that steps of one batch size ask malloc for one size (README)."""
    ids, n, order = pack(sentences)
    real = real_tokens(n, ids.shape[1])
    inputs = np.empty_like(ids)
    inputs[0] = model.bos_id
    inputs[1:] = ids[:-1]
    p = model.params
    hs, cache = lstm_forward(p["emb"][inputs], n, p["W"], p["U"], p["b"])
    h = hs[real]
    cap = max(len(h), len(sentences) * model.prior.max_length)
    logp = np.matmul(h, p["Wo"], out=np.empty((cap, model.V))[: len(h)])
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


class Draw:
    """The chains of one sample call, stepped in blocks.

    Made from the model and rng: the lengths, then one uniform per chain per
    step, (T, count) in one call, which gives the same numbers and leaves the
    rng in the same state as T calls of rng.random(count). The chains, sorted
    longest first, are cut into blocks of R = SAMPLE_FLOATS // V consecutive
    chains. run_blocks steps blocks until none is left, each through all of
    its steps, and may run on several threads at once over one Draw; result
    reads the draws once every block has run.

    Bit for bit: numpy sends a one-row product to gemv, which rounds unlike
    gemm, while a row of a gemm comes out the same at any row count from two
    up. A step that computes one chain alone therefore pads it to two rows
    unless it is the draw's only live chain, as it was when all the chains
    stepped together.
    """

    def __init__(self, model: NoiseModel, count, rng):
        L = model.prior.max_length
        self.lengths = rng.choice(np.arange(1, L + 1), size=count, p=model.prior.probs)
        self.order, self.n = sort_by_length(self.lengths)
        self.u = rng.random((len(self.n), count))
        self.params, self.V, self.bos_id = model.params, model.V, model.bos_id
        R = max(1, SAMPLE_FLOATS // model.V)
        self.rows = min(max(R, 2), count)  # a block's chains, or two for a padded one
        self._blocks = ((lo, min(lo + R, count)) for lo in range(0, count, R))
        self._lock = threading.Lock()
        # the tokens and log-probabilities in sorted order, each block in its columns
        self.tokens = np.zeros((len(self.n), count), dtype=np.int64)
        self.log_p = np.zeros(count)

    def detach(self):
        """Draw from copies of the parameters, so that the model may be
        updated while the blocks run."""
        self.params = {k: v.copy() for k, v in self.params.items()}

    def work_arrays(self):
        """A block's two (rows, V) work arrays, for run_blocks."""
        return np.empty((self.rows, self.V)), np.empty((self.rows, self.V))

    def run_blocks(self, work=None):
        """Step the blocks no thread has taken yet, one at a time, through
        `work` (what work_arrays returns; made at the first block if None)."""
        while True:
            with self._lock:
                block = next(self._blocks, None)
            if block is None:
                return
            if work is None:
                work = self.work_arrays()
            self.step_block(*block, work)

    def step_block(self, lo, hi, work):
        """Step the chains in sorted positions lo..hi-1 to their lengths."""
        p, V = self.params, self.V
        cols = self.order[lo:hi]  # the block's chains, longest first
        # a block of one chain steps a copy of it as its second row
        chains = cols if len(cols) > 1 or len(self.order) == 1 else np.repeat(cols, 2)
        live = (self.lengths[cols][:, None] > np.arange(self.lengths[cols[0]])).sum(axis=0)
        h = c = np.zeros((len(chains), p["emb"].shape[1]))
        prev = np.full(len(chains), self.bos_id, dtype=np.int64)
        logp_buf, exp_buf = work
        starts = np.arange(0, V, BLOCK)
        for t, k in enumerate(live):
            m = 2 if k == 1 and self.n[t] > 1 else k  # rows stepped: k live and a pad
            rows = np.arange(m)
            u = self.u[t, chains[:m]]
            h, c = lstm_cell(p["emb"][prev[:m]] @ p["W"], h[:m], c[:m], p["U"], p["b"])
            logp, ex = logp_buf[:m], exp_buf[:m]
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
            words = np.minimum(starts[blk, None] + np.arange(BLOCK), V - 1)
            within = np.cumsum(ex[rows[:, None], words], axis=1) + below
            prev = np.minimum(starts[blk] + np.count_nonzero(within < target, axis=1), V - 1)
            self.tokens[t, lo : lo + k] = prev[:k]
            self.log_p[lo : lo + k] += (logp[rows, prev] - np.log(total))[:k]

    def result(self):
        """(sentences, log_p) in draw order, as sample returns them."""
        sents = [None] * len(self.order)
        for j, row in zip(self.order.tolist(), self.tokens.T.tolist()):
            sents[j] = tuple(row[: self.lengths[j]])
        out = np.empty(len(self.order))
        out[self.order] = self.log_p
        return sents, out


def sample(model: NoiseModel, count, rng, runner=None):
    """Draw `count` sentences: length from pi, then words autoregressively.

    Returns (sentences, log_p), where log_p[j] is draw j's word-sequence
    log-probability (length-prior factor excluded) read off the same
    log-softmax the draw used, so it agrees with seq_log_prob_batch on
    the draws to rounding. Deterministic given the rng state: the lengths,
    then all the uniforms, one per chain per step in fixed chain order, are
    drawn up front (Draw). The chains are stepped longest first, in blocks
    of SAMPLE_FLOATS // V, so only the prefix of a block's chains that have
    not reached their length computes at each step, and the work arrays do
    not grow with `count`. runner(draw), if given, steps all the blocks of
    the Draw in place of draw.run_blocks() on this thread.
    """
    if count <= 0:
        return [], np.zeros(0)
    draw = Draw(model, count, rng)
    (runner or Draw.run_blocks)(draw)
    return draw.result()


def nll_and_grads(model: NoiseModel, sentences):
    """Mean per-sentence negative log-likelihood of the word sequences
    (length-prior factor excluded: it does not depend on the LM), its
    gradient w.r.t. all parameters, and the sentences' word-sequence
    log-probabilities, bit-identical to seq_log_prob_batch's."""
    if not sentences:
        raise CorpusError("empty minibatch")
    B = len(sentences)
    seq, inputs, real, targets, h, cache, logp = _forward(model, sentences)
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
