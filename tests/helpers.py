"""Single-item conveniences over the batched library calls, used by the tests."""

import numpy as np

from trflm import evaluation, features, neural, noise, trainer
from trflm.corpus import _xlogx


def phi_forward(sentence, params):
    """Single-sentence potential; returns (value, cache)."""
    vals, cache = neural.phi_forward_batch([tuple(sentence)], params)
    return float(vals[0]), cache


def phi_backward(cache, scale, grad_acc):
    """Accumulate scale * dphi/dtheta into grad_acc (dict of arrays)."""
    grads = neural.phi_backward_batch(cache, np.array([scale]))
    for k, g in grads.items():
        if grad_acc[k].shape != g.shape:
            raise neural.NeuralError("gradient shape mismatch for %r" % k)
        grad_acc[k] += g
    return grad_acc


def adam_step(param: np.ndarray, grad: np.ndarray, lr, state: trainer.AdamState):
    """Single-array step of AdamState.step."""
    holder = {"p": param}
    state.step(holder, {"p": grad}, {"p": lr})
    return holder["p"]


def feature_counts_dense(sentence, index: features.FeatureIndex) -> np.ndarray:
    out = np.zeros(index.n_features, dtype=np.float64)
    for fid, c in features.extract(sentence, index):
        out[fid] = c
    return out


def interpolate(scorers, sentence) -> float:
    """Equal-weight log-linear interpolation: the mean of the log-scores."""
    return evaluation.ScorerSet.equal_weights(scorers).score(sentence)


def noise_log_prob(model: noise.NoiseModel, sentence) -> float:
    """log pi_l + autoregressive word-sequence log-probability."""
    lp_len = model.prior.log_prob(len(sentence))
    return lp_len + float(noise.seq_log_prob_batch(model, [tuple(sentence)])[0])


def class_bigram_log_likelihood(M, right_word_counts):
    """Class-bigram ML log-likelihood of the corpus bigrams.

    M is the class-to-class bigram count matrix. The per-word emission
    term only involves word counts and is constant under reassignment,
    but it is included so the n_classes = V case equals the plain bigram
    log-likelihood.
    """
    l = M.sum(axis=1)
    r = M.sum(axis=0)
    return float(
        _xlogx(M).sum()
        - _xlogx(l).sum()
        - _xlogx(r).sum()
        + _xlogx(right_word_counts).sum()
    )


def clustering_objective(sentences, cls, n_classes):
    """The exchange-clustering objective, recomputed from scratch."""
    M = np.zeros((n_classes, n_classes), dtype=np.float64)
    right_counts = np.zeros(len(cls), dtype=np.int64)
    for s in sentences:
        for u, v in zip(s, s[1:]):
            M[cls[u], cls[v]] += 1
            right_counts[v] += 1
    return class_bigram_log_likelihood(M, right_counts)
