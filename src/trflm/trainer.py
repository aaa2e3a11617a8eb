"""Dynamic noise-contrastive estimation: minibatch assembly, the class
posterior, stochastic gradients over (lambda, theta, zeta), Adam updates
with per-group learning rates, the halving schedules, and joint noise
updates."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import model as model_mod
from . import neural
from . import noise as noise_mod
from .container import write_container


MAX_NOISE_PER_DATA = 100  # noise sentences, B1 and B2 together, per data sentence


class TrainerError(ValueError):
    pass


class ResumeConfigError(TrainerError):
    """A checkpoint was written under another trainer config, or under none."""


@dataclass
class DnceConfig:
    alpha: float = 0.2
    nu: float = 1.0
    batch_size: int = 100
    lr_lambda: float = 0.003
    lr_theta: float = 0.003
    lr_zeta: float = 0.01
    lr_noise: float = 1.0
    halving_threshold: float = 0.001  # relative dev improvement below this halves lr
    stop_ratio: float = 0.1  # stop once the lambda/theta lr falls below this fraction
    max_epochs: int = 100
    seed: int = 0
    schedule: str = "dev-halving"  # or "per-epoch-halving"
    halve_every: int = 1  # epoch stride for the per-epoch schedule
    average_tail: int = 0  # average parameter iterates over the last N steps

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainerError("%s must be a finite number, got %r" % (f.name, value))
        for name in ("batch_size", "max_epochs", "halve_every"):
            if getattr(self, name) < 1:
                raise TrainerError("%s must be >= 1" % name)
        if self.seed < 0:
            raise TrainerError("seed must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise TrainerError("alpha must be in (0, 1)")
        if self.nu <= 0:
            raise TrainerError("nu must be positive")
        draws = (1.0 - self.alpha + self.nu) / self.alpha
        if draws > MAX_NOISE_PER_DATA:
            raise TrainerError(
                "(1 - alpha + nu) / alpha = %.4g noise draws per data sentence, more than %d"
                % (draws, MAX_NOISE_PER_DATA)
            )
        for name in ("lr_lambda", "lr_theta", "lr_zeta", "lr_noise"):
            if getattr(self, name) <= 0:
                raise TrainerError("%s must be positive" % name)
        if self.schedule not in ("dev-halving", "per-epoch-halving"):
            raise TrainerError("unknown schedule %r" % self.schedule)
        if self.average_tail < 0:
            raise TrainerError("average_tail must be >= 0")
        if self.average_tail and self.schedule == "dev-halving" and self.stop_ratio > 0:
            raise TrainerError("average_tail needs per-epoch-halving or stop_ratio <= 0")


def minibatch_sizes(alpha, nu, d_size):
    """|B1| = (1-alpha)/alpha |D| and |B2| = nu/alpha |D|, rounded, min 1."""
    b1 = max(1, int(math.floor((1.0 - alpha) / alpha * d_size + 0.5)))
    b2 = max(1, int(math.floor(nu / alpha * d_size + 0.5)))
    return b1, b2


def posterior_c0(score_m, log_p_ar, nu):
    """P(C = 0 | x): model vs scaled noise, in the log domain, elementwise.

    score_m is (potential - zeta_l); log_p_ar the noise word-sequence
    log-probability. The length prior cancels in the ratio, so neither
    input includes it.
    """
    delta = score_m - log_p_ar - math.log(nu)
    return np.exp(-np.logaddexp(0.0, -delta))


def grad_estimate(model, D, B1, B2, log_p_noise, alpha, nu, p0=None) -> dict:
    """Stochastic ascent gradient on the discrimination objective, keyed
    like model.params().

    log_p_noise holds the noise word-sequence log-probabilities of D, B1
    and B2 in that order, as noise_train_step and noise.sample return
    them; the objective reads the noise LM through these alone.
    model.gradient sums the step with weights +P(C=1) on D u B1 and
    -P(C=0) on B2, everything scaled by alpha/|D|. p0, if given, receives
    P(C=0|x) of every sentence, in the order of log_p_noise.
    """
    if not D:
        raise TrainerError("empty data minibatch")
    if len(log_p_noise) != len(D) + len(B1) + len(B2):
        raise TrainerError("need one noise log-probability per sentence of D, B1 and B2")
    n_mix = len(D) + len(B1)
    scale = alpha / len(D)

    def weigh(idx, score_m):
        p = posterior_c0(score_m, log_p_noise[idx], nu)
        if p0 is not None:
            p0[idx] = p
        return np.where(idx < n_mix, scale * (1.0 - p), -scale * p)

    return model.gradient(list(D) + list(B1) + list(B2), weigh)


def noise_phase(noise, D, count, lr, rng):
    """Draw `count` noise sentences and take the noise LM's KL step on D,
    both under the noise parameters from before the step; returns
    (log_p_d, drawn, log_p_drawn), D's word-sequence log-probabilities from
    the KL step and the draws with theirs. The step runs within the one
    noise_mod.sample call, concurrently with the draw where neural.overlap
    allows (README); the results are bit-identical on either path.
    """
    log_p_d = []  # the step's return value

    def runner(draw):
        fits = (4 * draw.rows + sum(map(len, D))) * noise.V <= model_mod.SCORE_FLOATS

        def worker_arrays():
            draw.detach()
            return {"work": draw.work_arrays()}

        def step_then_draw():
            log_p_d.append(noise_mod.noise_train_step(noise, D, lr))
            draw.run_blocks()

        neural.overlap(draw.run_blocks, step_then_draw, fits, worker_arrays)

    drawn, log_p_drawn = noise_mod.sample(noise, count, rng, runner)
    return log_p_d[0], drawn, log_p_drawn


class AdamState:
    """Per-array first/second moment estimates; ascent on the objective."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict, lrs: dict):
        """One ascent step on every array in grads, each at its own rate in lrs."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m.get(k, 0.0) + (1.0 - b1) * g
            self.v[k] = b2 * self.v.get(k, 0.0) + (1.0 - b2) * g * g
            mhat = self.m[k] / corr1
            vhat = self.v[k] / corr2
            params[k] += lrs[k] * mhat / (np.sqrt(vhat) + self.EPS)


def dev_log_likelihood(model, dev_sentences) -> float:
    """Mean per-sentence log-probability with the model's own zeta.

    A surrogate while zeta is still an estimate; used only for the
    halving schedule and for reporting.
    """
    return float(model.log_prob_batch(dev_sentences).mean())


@dataclass
class StepRecord:
    """What one dnce_step computed: the sizes of D, B1 and B2, D's token
    count, and the noise log-probabilities and P(C=0|x) of D, B1 and B2,
    in that order."""

    d: int
    b1: int
    b2: int
    d_tokens: int
    log_p_noise: np.ndarray
    p0: np.ndarray


def dnce_step(model, noise, D, config, rng, adam, lrs) -> StepRecord:
    """One DNCE step on the data minibatch D (Wang & Ou, arXiv:1807.00993).

    Draw B1 and B2 from the noise LM and take its KL step on D, both under
    the noise parameters from before the step (noise_phase). The KL step
    returns D's noise log-probabilities from its own forward pass, under
    the parameters the draws used, so the gradient is the one that scoring
    D before the KL step gives. Then one Adam ascent step on lambda, theta
    and zeta at the learning rates lrs, keyed like model.params().
    """
    b1, b2 = minibatch_sizes(config.alpha, config.nu, len(D))
    log_p_d, drawn, log_p_drawn = noise_phase(noise, D, b1 + b2, config.lr_noise, rng)
    log_p_noise = np.concatenate([log_p_d, log_p_drawn])
    p0 = np.empty(len(log_p_noise))
    grads = grad_estimate(
        model, D, drawn[:b1], drawn[b1:], log_p_noise, config.alpha, config.nu, p0
    )
    adam.step(model.params(), grads, lrs)
    return StepRecord(len(D), b1, b2, sum(map(len, D)), log_p_noise, p0)


@dataclass
class TrainState:
    epoch: int = 0
    lr_factor: float = 1.0
    best_dev: float = -math.inf
    dev_history: list = field(default_factory=list)


def _checkpoint_arrays(model, noise, adam, avg_sums):
    """Every array of the training state, under its name in a checkpoint."""
    groups = {
        "model": model.params(),
        "noise": noise.params,
        "adam.m": adam.m,
        "adam.v": adam.v,
        "avg": avg_sums,
    }
    return {"%s.%s" % (g, k): v for g, arrays in groups.items() for k, v in arrays.items()}


def _checkpoint(path, config, model, noise, adam, avg_sums, avg_n, state, rng):
    manifest = {
        "kind": "dnce-checkpoint",
        "config": asdict(config),
        "state": asdict(state),
        "adam_t": adam.t,
        "avg_n": avg_n,
        "rng_state": rng.bit_generator.state,
    }
    write_container(path, manifest, _checkpoint_arrays(model, noise, adam, avg_sums))


def _restore(path, config, model, noise, adam, rng):
    """Load a checkpoint into the run's own arrays, in place, once the file
    is seen to hold this run's config (max_epochs may differ) and every
    value is checked."""
    manifest, arrays = model_mod.read_checked(path, "dnce-checkpoint")
    stored = manifest["config"]
    if stored is None:
        raise ResumeConfigError("checkpoint %s stores no trainer config to check" % path)
    current = asdict(config)
    changed = [
        "%s %r -> %r" % (k, stored.get(k), current.get(k))
        for k in sorted(stored.keys() | current.keys())
        if k != "max_epochs" and stored.get(k) != current.get(k)
    ]
    if changed:
        raise ResumeConfigError(
            "checkpoint %s was written under another trainer config: %s"
            % (path, "; ".join(changed))
        )
    state = TrainState(**{f.name: manifest["state"][f.name] for f in fields(TrainState)})
    for key, count in [
        ("state.epoch", state.epoch), ("adam_t", manifest["adam_t"]), ("avg_n", manifest["avg_n"])
    ]:
        if count < 0:
            raise model_mod.ModelError("%s: manifest key %r is below 0" % (path, key))
    probe = type(rng.bit_generator)()
    try:
        probe.state = manifest["rng_state"]
    except (LookupError, TypeError, ValueError, OverflowError):
        raise model_mod.ModelError(
            "%s: manifest key 'rng_state' is not a %s state" % (path, type(probe).__name__)
        ) from None
    params = model.params()
    adam.m = {k: np.empty_like(v) for k, v in params.items()}
    adam.v = {k: np.empty_like(v) for k, v in params.items()}
    avg_sums = {k: np.empty_like(v) for k, v in params.items()} if manifest["avg_n"] else {}
    live = _checkpoint_arrays(model, noise, adam, avg_sums)
    model_mod.check_arrays(path, arrays, {name: value.shape for name, value in live.items()})
    for name, value in live.items():
        value[...] = arrays[name]
    adam.t = manifest["adam_t"]
    rng.bit_generator.state = manifest["rng_state"]
    return state, avg_sums, manifest["avg_n"]


def train(
    config: DnceConfig,
    train_sentences,
    dev_sentences,
    model,
    noise,
    log_sink=None,
    checkpoint_path=None,
    resume=False,
    max_steps=None,
    on_step=None,
):
    """Run DNCE until the schedule stops it; returns (model, TrainState).

    Per step: draw D by shuffled epoch traversal, then dnce_step; on_step,
    if given, is called with the step's number (counted across a resume)
    and its StepRecord. Per epoch: evaluate the dev surrogate, apply the
    halving schedule, and checkpoint if a path is given. A dev
    log-likelihood above 1e-9 or not finite, or a parameter that is not
    finite, raises TrainerError before that epoch's checkpoint.
    """
    if not train_sentences or not dev_sentences:
        raise TrainerError("training and dev corpora must be nonempty")
    model.check_lengths(train_sentences)
    model.check_lengths(dev_sentences)
    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    state, avg_sums, avg_n = TrainState(), {}, 0
    if resume:
        state, avg_sums, avg_n = _restore(checkpoint_path, config, model, noise, adam, rng)
    params = model.params()

    n = len(train_sentences)
    steps_per_epoch = math.ceil(n / config.batch_size)
    step_count = state.epoch * steps_per_epoch

    # Polyak tail averaging: the stochastic iterates hover around the
    # optimum at a radius set by the learning rate; averaging the last
    # average_tail iterates shrinks that radius without freezing the run.
    # The window ends at the last step the schedule allows.
    epochs = config.max_epochs
    if config.schedule == "per-epoch-halving" and config.stop_ratio > 0:
        halvings = next(k for k in itertools.count() if 0.5**k < config.stop_ratio)
        epochs = min(epochs, halvings * config.halve_every)
    budget = min(epochs * steps_per_epoch, math.inf if max_steps is None else max_steps)
    avg_start = budget - config.average_tail
    averaged = max(0, step_count - max(avg_start, 0)) if config.average_tail > 0 else 0
    if avg_n != averaged:
        raise TrainerError(
            "checkpoint holds the average of %d steps; this run's averaging window "
            "covers %d of the %d steps done" % (avg_n, averaged, step_count)
        )

    while state.epoch < config.max_epochs:
        if state.lr_factor < config.stop_ratio:
            break
        t0 = time.time()
        factor = state.lr_factor
        lrs = model.named(config.lr_zeta, config.lr_lambda * factor, config.lr_theta * factor)
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            D = [train_sentences[i] for i in order[b * config.batch_size : (b + 1) * config.batch_size]]
            record = dnce_step(model, noise, D, config, rng, adam, lrs)
            step_count += 1
            if config.average_tail > 0 and step_count > avg_start:
                for key, value in params.items():
                    avg_sums[key] = avg_sums[key] + value if avg_n else value.copy()
                avg_n += 1
            if on_step is not None:
                on_step(step_count, record)
            if max_steps is not None and step_count >= max_steps:
                break
        state.epoch += 1
        dev_ll = dev_log_likelihood(model, dev_sentences)
        # each log p(l, x) <= 0 while zeta_l >= log Z_l, so a mean above 0 shows zeta diverged
        broken = [k for k, v in params.items() if not np.isfinite(v).all()]
        if broken or not dev_ll <= 1e-9:
            raise TrainerError(
                "training diverged in epoch %d: dev log-likelihood %.6g per sentence%s"
                % (state.epoch, dev_ll, "; not finite: " + ", ".join(broken) if broken else "")
            )
        state.dev_history.append(dev_ll)
        if config.schedule == "per-epoch-halving":
            if state.epoch % config.halve_every == 0:
                state.lr_factor *= 0.5
        else:
            if state.best_dev > -math.inf:
                rel = (dev_ll - state.best_dev) / abs(state.best_dev)
                if rel < config.halving_threshold:
                    state.lr_factor *= 0.5
        state.best_dev = max(state.best_dev, dev_ll)
        if log_sink is not None:
            log_sink.write(
                "%d\t%.6f\t%.6g\t%.6g\t%.6g\t%.3f\n"
                % (
                    state.epoch,
                    dev_ll,
                    config.lr_lambda * state.lr_factor,
                    config.lr_theta * state.lr_factor,
                    config.lr_zeta,
                    time.time() - t0,
                )
            )
            log_sink.flush()
        if checkpoint_path is not None:
            _checkpoint(checkpoint_path, config, model, noise, adam, avg_sums, avg_n, state, rng)
        if max_steps is not None and step_count >= max_steps:
            break
    if avg_n > 0:
        for key, value in params.items():
            value[:] = avg_sums[key] / avg_n
    return model, state
