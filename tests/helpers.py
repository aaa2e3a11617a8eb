"""Single-item conveniences over the batched library calls, used by the tests."""

import numpy as np

from trflm import evaluation, features, neural, trainer


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
