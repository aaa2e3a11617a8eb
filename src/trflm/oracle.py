"""Exact brute-force references for tiny configurations.

Everything here enumerates all V + V^2 + ... + V^L sentences, so a hard
guard refuses configurations past V^L = 10^7. These functions generate
the ground truth the test suite checks the fast paths against; nothing
in here is used by training itself.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import features as feats
from . import neural
from .corpus import LengthPrior, Vocabulary
from .model import TrfModel, zeta_init
from .noise import init_noise_model, seq_log_prob_batch
from .trainer import posterior_c0

ENUM_GUARD = 10**7


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class EnumSpace:
    V: int
    L: int

    def __post_init__(self):
        if self.V**self.L > ENUM_GUARD:
            raise OracleError(
                "V^L = %d exceeds the enumeration guard %d" % (self.V**self.L, ENUM_GUARD)
            )

    def sentences_of_length(self, l):
        return itertools.product(range(self.V), repeat=l)


def _log_weights(model, space: EnumSpace):
    """Each length's sentences and their potentials, shortest first."""
    sentences = (list(space.sentences_of_length(l)) for l in range(1, space.L + 1))
    return [(sents, model.log_weight_batch(sents)) for sents in sentences]


def exact_log_z(model, space: EnumSpace) -> np.ndarray:
    """Per-length log normalizers via log-domain accumulation."""
    return np.array([_logsumexp(lw) for _, lw in _log_weights(model, space)])


def _logsumexp(values):
    values = np.asarray(values, dtype=np.float64)
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


def exact_sentence_probs(model, space: EnumSpace, zeta=None):
    """dict (sentence tuple) -> exact probability under the model."""
    log_weights = _log_weights(model, space)
    if zeta is None:
        zeta = [_logsumexp(lw) for _, lw in log_weights]
    probs = {}
    for l, (sents, lw) in enumerate(log_weights, 1):
        pi_l = model.prior.prob(l)
        if pi_l == 0.0:
            continue
        p = pi_l * np.exp(lw - zeta[l - 1])
        for s, ps in zip(sents, p):
            probs[s] = float(ps)
    return probs


def exact_expectations(model, space: EnumSpace, feature_index) -> np.ndarray:
    """E_model[f] with exact normalizers, mixing over lengths by pi."""
    probs = exact_sentence_probs(model, space)
    occurrences = feats.extract(list(probs), feature_index)
    p = np.array(list(probs.values()))
    return feats.batch_gradient(occurrences, p, feature_index.n_features)


def finite_diff(fn, arrays, epsilon=1e-5) -> dict:
    """Central differences of the scalar fn() with respect to every element
    of the named float64 arrays, perturbed in place: each element is set to
    x + epsilon, then x - epsilon, then restored to the saved x, so the
    arrays end exactly as they began. Returns gradients under the same names."""
    if epsilon <= 0:
        raise OracleError("epsilon must be positive")
    grads = {}
    for name, a in arrays.items():
        if not isinstance(a, np.ndarray) or a.dtype != np.float64:
            raise OracleError("%r is not a float64 array" % name)
        g = np.empty(a.shape)
        for i in range(a.size):
            x = a.flat[i]
            a.flat[i] = x + epsilon
            f_plus = fn()
            a.flat[i] = x - epsilon
            f_minus = fn()
            a.flat[i] = x
            g.flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        grads[name] = g
    return grads


def gradient_error(fn, arrays, grads, floor) -> float:
    """Max relative error |a - n| / max(floor, |a| + |n|) of the analytic
    gradients `grads` against finite_diff(fn, arrays); both dicts must name
    the same arrays with the same shapes."""
    shapes = {k: a.shape for k, a in arrays.items()}
    got = {k: np.shape(g) for k, g in grads.items()}
    if got != shapes:
        raise OracleError("gradients %s do not match the arrays %s" % (got, shapes))
    numeric = finite_diff(fn, arrays)
    a = np.concatenate([np.ravel(grads[k]) for k in arrays])
    n = np.concatenate([numeric[k].ravel() for k in arrays])
    return float(np.max(np.abs(a - n) / np.maximum(floor, np.abs(a) + np.abs(n))))


def noise_sentence_probs(noise_model, space: EnumSpace):
    """dict sentence -> exact probability under the noise distribution."""
    probs = {}
    for l in range(1, space.L + 1):
        pi_l = noise_model.prior.prob(l)
        if pi_l == 0.0:
            continue
        sents = list(space.sentences_of_length(l))
        lp = seq_log_prob_batch(noise_model, sents)
        for s, v in zip(sents, lp):
            probs[s] = pi_l * math.exp(v)
    return probs


def _noise_scored(model, noise_model, space: EnumSpace):
    """Per length l the model's prior allows: (l, the sentences of length l,
    their noise word-sequence log-probabilities)."""
    for l in range(1, space.L + 1):
        if model.prior.prob(l) > 0.0:
            sents = list(space.sentences_of_length(l))
            yield l, sents, seq_log_prob_batch(noise_model, sents)


def exact_dnce_objective(model, noise_model, data_probs, alpha, nu, space: EnumSpace):
    """The exact discrimination objective, summing over every sentence.

    data_probs maps sentence tuples to empirical data probabilities;
    the mixture q = alpha * p_data + (1 - alpha) * p_noise.
    """
    J = 0.0
    for l, sents, seq_lp in _noise_scored(model, noise_model, space):
        pi_n = noise_model.prior.prob(l)
        score_m = model.log_weight_batch(sents) - model.zeta[l - 1]
        for s, sm, sn in zip(sents, score_m, seq_lp):
            pn = pi_n * math.exp(sn)
            q = alpha * data_probs.get(s, 0.0) + (1.0 - alpha) * pn
            delta = sm - sn - math.log(nu)
            log_p0 = -np.logaddexp(0.0, -delta)  # log sigmoid(delta)
            log_p1 = -np.logaddexp(0.0, delta)
            J += q * log_p0 + nu * pn * log_p1
    return float(J)


def exact_dnce_gradient(model, noise_model, data_probs, alpha, nu, space: EnumSpace):
    """Exact ascent gradient of the objective w.r.t. (lambda, theta, zeta),
    keyed like model.params(): model.gradient over every sentence of a length
    the model's prior allows, weighted q(x) P(C=1|x) - nu p_n(x) P(C=0|x)."""
    scored = list(_noise_scored(model, noise_model, space))
    sents = [s for _, group, _ in scored for s in group]
    seq_lp = np.concatenate([lp for _, _, lp in scored])
    pn = np.concatenate([noise_model.prior.prob(l) * np.exp(lp) for l, _, lp in scored])
    q = alpha * np.array([data_probs.get(s, 0.0) for s in sents]) + (1.0 - alpha) * pn

    def weigh(idx, score_m):
        p0 = posterior_c0(score_m, seq_lp[idx], nu)
        return q[idx] * (1.0 - p0) - nu * pn[idx] * p0

    return model.gradient(sents, weigh)


def self_check(V, L, d, seed):
    """Exact checks on a random tiny mixed model (w:2 features, BiLSTM of
    width d) and noise LM: normalization under the exact zeta, the phi
    gradient on one sentence and the exact DNCE gradient over (lambda,
    theta, zeta), both against finite differences. Returns rows
    (name, passed, detail); raises OracleError past the enumeration guard."""
    space = EnumSpace(V, L)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])
    pi = rng.random(L) + 0.1
    prior = LengthPrior(pi / pi.sum())
    corpus = [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(30)]
    index = feats.build_feature_index(corpus, feats.compile_templates("w:2"), "00")
    lam = rng.uniform(-0.3, 0.3, index.n_features)
    phi_params = neural.init_phi_params(V, d, seed=int(rng.integers(1 << 31)))
    model = TrfModel(
        vocab, prior, zeta_init(V, L), feature_index=index, lam=lam, phi_params=phi_params
    )
    noise = init_noise_model(V, d, prior, seed=int(rng.integers(1 << 31)))

    model.zeta = exact_log_z(model, space)
    total = sum(exact_sentence_probs(model, space, model.zeta).values())

    s = tuple(rng.integers(0, V, size=L))
    _, cache = neural.phi_forward_batch([s], model.phi_params)
    rel_phi = gradient_error(
        lambda: float(neural.phi_forward_batch([s], model.phi_params)[0][0]),
        model.phi_params,
        neural.phi_backward_batch(cache, np.ones(1)),
        floor=1e-6,
    )

    data = [tuple(rng.integers(0, V, size=rng.integers(1, L + 1))) for _ in range(20)]
    data_probs = {k: c / len(data) for k, c in Counter(data).items()}
    rel_dnce = gradient_error(
        lambda: exact_dnce_objective(model, noise, data_probs, 0.5, 1.0, space),
        model.params(),
        exact_dnce_gradient(model, noise, data_probs, 0.5, 1.0, space),
        floor=1e-5,
    )
    return [
        ("normalization", abs(total - 1.0) < 1e-9, "sum=%.12f" % total),
        ("phi-gradient", rel_phi < 1e-4, "max rel err=%.2e" % rel_phi),
        ("dnce-gradient", rel_dnce < 1e-4, "max rel err=%.2e" % rel_dnce),
    ]
