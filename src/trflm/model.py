"""The trans-dimensional random field model: per-length globally normalized
sentence distributions sharing a linear discrete-feature potential and a
nonlinear recurrent potential.

log p(l, x^l) = log pi_l + lambda^T f(x^l) + phi(x^l; theta) - zeta_l

Either potential may be absent: discrete-only and neural-only models are
the same type with one part disabled.
"""

from __future__ import annotations

import math

import numpy as np

from . import features as feats
from . import neural
from .container import read_container, write_container
from .corpus import ClassMap, CorpusError, LengthPrior, Vocabulary
from .noise import NoiseModel, param_shapes


_PHI = "phi."  # name prefix of the neural potential's arrays in params()
_KEYS = "keys."  # "keys.<template id>": that template's feature keys, one row each
# forward cache a gradient chunk may keep, at 16 d floats a token and layer; scoring cuts the
# same chunks but keeps no cache, and its two input tables must fit in it too
SCORE_FLOATS = 2**22


class ModelError(ValueError):
    pass


class _Entries(dict):
    """A container file's arrays, whose missing entry raises ModelError
    naming the file and the array."""

    def __init__(self, entries, path):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise ModelError("%s lacks the array %r" % (self.path, key))


# The manifest keys of each file kind, with the JSON type of each value: int, float, str,
# bool, dict (any object), None (null), a tuple of types (any one of them), [t] (a list of
# t), [t, u] (a list of a t and a u), or a dict of keys and their types (an object holding
# those keys). A key whose type admits null may be absent and reads as null. Other keys
# are ignored, such as the max_order, n_layers and V of older files.
MANIFEST_KEYS = {
    "trf-model": {
        "vocab": [str],
        "unk_token": str,
        "template_spec": str,
        "has_discrete": bool,
        "has_neural": bool,
        "templates": (None, [[str, [int]]]),  # each template's source and offsets
        "class_map": (None, [int]),  # each word's class id
        "n_classes": (None, int),
    },
    "noise-model": {"vocab": [str], "unk_token": str},
    "dnce-checkpoint": {
        "config": (None, dict),  # trainer._restore compares it with the run's own
        # trainer.TrainState; a file without the steps was written at an epoch's end
        "state": {"steps": (None, int), "dev_history": [float], "epoch_rng_state": (None, dict)},
        "adam_t": int,
        "avg_n": int,
        "rng_state": dict,
    },
}


def _conforms(value, t) -> bool:
    """Whether a value json.loads gave has the declared type t; a bool is no int and an int
    no float."""
    if type(t) is tuple:
        return any(_conforms(value, u) for u in t)
    if type(t) is list:
        if type(value) is not list:
            return False
        items = t * len(value) if len(t) == 1 else t
        return len(value) == len(items) and all(map(_conforms, value, items))
    return type(value) is (type(None) if t is None else t)


def _type_name(t) -> str:
    """t as refusals name it."""
    if type(t) is tuple:
        return " or ".join(map(_type_name, t))
    if type(t) is list and len(t) == 1:
        return "list of " + _type_name(t[0])
    if type(t) is list:
        return "[%s]" % ", ".join(map(_type_name, t))
    return "dict" if type(t) is dict else "null" if t is None else t.__name__


def _check_keys(path, manifest, declared, prefix=""):
    """Raise ModelError naming the file and the key unless manifest holds each declared key
    (one whose type admits null may be absent, and is set to None) with a value of its type."""
    for key, t in declared.items():
        if key not in manifest and not _conforms(None, t):
            raise ModelError("%s lacks the manifest key %r" % (path, prefix + key))
        value = manifest.setdefault(key, None)
        if type(t) is dict and type(value) is dict:
            _check_keys(path, value, t, prefix + key + ".")
        elif not _conforms(value, t):
            raise ModelError(
                "%s: manifest key %r is not of type %s" % (path, prefix + key, _type_name(t))
            )


def read_checked(path, kind):
    """The manifest and arrays, the arrays as _Entries, of a container file whose manifest
    kind is kind, which holds each key of MANIFEST_KEYS[kind] in its type and whose arrays
    hold finite values only; any other file raises ModelError."""
    manifest, arrays = read_container(path)
    if manifest.get("kind") != kind:
        raise ModelError("%s is not a %s file (kind %r)" % (path, kind, manifest.get("kind")))
    _check_keys(path, manifest, MANIFEST_KEYS[kind])
    broken = [k for k, a in arrays.items() if not np.isfinite(a).all()]
    if broken:
        raise ModelError(
            "%s holds NaN or infinite values in the arrays %s" % (path, ", ".join(broken))
        )
    return manifest, _Entries(arrays, path)


def check_arrays(path, arrays, shapes):
    """Raise ModelError naming the file and the arrays unless arrays holds
    exactly the names of shapes, each in its shape."""
    missing = [k for k in shapes if k not in arrays]
    if missing:
        raise ModelError("%s lacks the arrays %s" % (path, ", ".join(missing)))
    undeclared = sorted(arrays.keys() - shapes.keys())
    if undeclared:
        raise ModelError("%s holds undeclared arrays %s" % (path, ", ".join(undeclared)))
    for k, s in shapes.items():
        if arrays[k].shape != s:
            raise ModelError("%s: array %s has shape %s, not %s" % (path, k, arrays[k].shape, s))


def _length_prior(path, pi):
    """The LengthPrior of a file's checked 1-d pi, refused unless a probability vector."""
    if not ((pi >= 0).all() and abs(pi.sum() - 1.0) <= 1e-9):
        raise ModelError(
            "%s: array pi is not a probability vector (finite, >= 0, summing to 1)" % path
        )
    return LengthPrior(pi)


def _vocabulary(path, manifest):
    """The Vocabulary of a checked manifest; a word list Vocabulary refuses raises ModelError
    naming the file."""
    try:
        return Vocabulary(manifest["vocab"], unk_token=manifest["unk_token"])
    except CorpusError as exc:
        raise ModelError("%s: manifest key 'vocab': %s" % (path, exc)) from None


def _width(emb):
    """d >= 1 of an (n, d) table, else 1; the shapes that follow refuse any other."""
    return max((1, *emb.shape[1:2]))


def _accumulate(total, g):
    """total + g added into total's arrays (g an array, or a dict of them
    keyed like total); g itself when total is None."""
    if total is None:
        return g
    if isinstance(g, dict):
        for k, v in g.items():
            total[k] += v
    else:
        total += g
    return total


def zeta_init(V, L) -> np.ndarray:
    """zeta_l = l * log V: exact for the all-zero-potential model."""
    if V < 1:
        raise ModelError("V must be >= 1")
    return np.arange(1, L + 1, dtype=np.float64) * math.log(V)


class TrfModel:
    def __init__(
        self,
        vocab: Vocabulary,
        prior: LengthPrior,
        zeta: np.ndarray,
        feature_index=None,
        lam=None,
        phi_params=None,
        class_map: ClassMap | None = None,
        template_spec: str = "",
    ):
        self.vocab = vocab
        self.prior = prior
        self.zeta = np.asarray(zeta, dtype=np.float64)
        self.feature_index = feature_index
        self.lam = None if lam is None else np.asarray(lam, dtype=np.float64)
        self.phi_params = phi_params
        self.class_map = class_map
        self.template_spec = template_spec
        self.path = None  # the file load read the model from, which refusals name

    def params(self) -> dict:
        """The trained arrays under one flat naming: "zeta", "lam" (discrete
        models) and "phi.<k>" (neural models). The values are the model's
        own arrays, not copies: writing into them changes the model."""
        return self.named(self.zeta, self.lam, self.phi_params)

    def named(self, zeta, lam, theta) -> dict:
        """Lay per-group values (gradients, learning rates) out under the
        names of params(). theta is a dict keyed like phi_params, or one
        value for every phi array; groups the model lacks are left out."""
        out = {"zeta": zeta}
        if self.has_discrete:
            out["lam"] = lam
        if self.has_neural:
            for k in self.phi_params:
                out[_PHI + k] = theta[k] if isinstance(theta, dict) else theta
        return out

    @property
    def max_length(self):
        return self.prior.max_length

    @property
    def has_discrete(self):
        return self.feature_index is not None and self.lam is not None

    @property
    def has_neural(self):
        return self.phi_params is not None

    def chunks(self, sentences):
        """Index arrays, each in input order, of length-sorted chunks of up to SCORE_FLOATS // 16 d
        real tokens (d = hidden size times layers, 1 without phi) or of one longer sentence, for
        potential_batch. 16 d floats a token sizes a gradient chunk's forward cache; a scoring
        chunk keeps far less."""
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        phi = self.phi_params
        d = phi["emb"].shape[1] * neural.n_layers_of(phi) if self.has_neural else 1
        order = np.argsort(lengths, kind="stable")
        ends = np.cumsum(lengths[order])
        del lengths  # not kept while the chunks are used: a chunk starts where the last ended
        lo = 0
        while lo < len(order):
            start = ends[lo - 1] if lo else 0
            hi = max(np.searchsorted(ends, start + SCORE_FLOATS // (16 * d), "right"), lo + 1)
            yield np.sort(order[lo:hi])
            lo = hi

    def log_weight_batch(self, sentences) -> np.ndarray:
        """Potentials alone, one chunk at a time, forward-only; with
        neural.input_tables when the call has at least as many real tokens
        as a table has rows (V >= 2) and both tables fit in SCORE_FLOATS."""
        tables = None
        if self.has_neural:
            V, d = self.phi_params["emb"].shape
            if 2 <= V <= sum(map(len, sentences)) and 8 * V * d <= SCORE_FLOATS:
                tables = neural.input_tables(self.phi_params)
        out = np.empty(len(sentences))
        for idx in self.chunks(sentences):
            batch = [sentences[j] for j in idx]
            out[idx] = self.potential_batch(batch, forward_only=True, tables=tables)[0]
        return out

    def potential_batch(self, sentences, forward_only=False, tables=None):
        """Unnormalized potentials of a batch with what their gradients need:
        (values, feature occurrences as extract gives them, phi cache);
        the parts the model lacks are None, and so is the cache when
        forward_only (neural.phi_forward_batch)."""
        vals = np.zeros(len(sentences))
        occurrences = cache = None
        if self.has_discrete:
            occurrences = feats.extract(sentences, self.feature_index)
            vals += feats.batch_potential(occurrences, self.lam, len(sentences))
        if self.has_neural:
            phis, cache = neural.phi_forward_batch(sentences, self.phi_params, forward_only, tables)
            vals += phis
        return vals, occurrences, cache

    def gradient(self, sentences, weigh) -> dict:
        """sum_j w_j (f(x_j), dphi(x_j)/dtheta, -delta(l = l_j)), keyed like
        params(): the DNCE gradient for whatever weights w the caller gives.
        weigh(idx, score) returns the weights of the sentences idx from their
        score (potential - zeta_l). The batch goes through chunks, one
        chunk's forward cache alive at a time."""
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        g_lambda = g_theta = None
        g_zeta = np.zeros(self.max_length)
        for idx in self.chunks(sentences):
            potential, occurrences, cache = self.potential_batch([sentences[j] for j in idx])
            w = weigh(idx, potential - self.zeta[lengths[idx] - 1])
            np.subtract.at(g_zeta, lengths[idx] - 1, w)
            # a chunk's gradient is added into the first chunk's arrays and
            # kept no longer, so it is gone before the next part is computed
            if self.has_discrete:
                n_features = self.feature_index.n_features
                g_lambda = _accumulate(g_lambda, feats.batch_gradient(occurrences, w, n_features))
            if self.has_neural:
                g_theta = _accumulate(g_theta, neural.phi_backward_batch(cache, w))
            del occurrences, cache  # before the next chunk's forward pass
        return self.named(g_zeta, g_lambda, g_theta)

    def log_prob(self, sentence) -> float:
        return float(self.log_prob_batch([sentence])[0])

    def check_lengths(self, sentences):
        """Raise CorpusError unless every sentence has a length in
        1..max_length with a nonzero prior; returns (lengths, their priors)."""
        lengths = np.array([len(s) for s in sentences], dtype=np.int64)
        if (lengths < 1).any() or (lengths > self.max_length).any():
            bad = sorted(set(int(l) for l in lengths if not 1 <= l <= self.max_length))
            raise CorpusError("lengths outside 1..%d: %s" % (self.max_length, bad))
        priors = self.prior.probs[lengths - 1]
        if (priors <= 0).any():
            bad = sorted(set(int(l) for l in lengths[priors <= 0]))
            raise CorpusError("lengths with zero prior probability: %s" % bad)
        return lengths, priors

    def log_prob_batch(self, sentences) -> np.ndarray:
        """log p(l, x) of each sentence. A value that is not finite or is above 1e-9 (0, with
        room for rounding), which only a zeta_l below log Z_l or diverged parameters give,
        raises ModelError naming the model's file, if any, and the first such length."""
        lengths, priors = self.check_lengths(sentences)
        # scored before the log-priors are made, so they are not alive meanwhile
        logp = self.log_weight_batch(sentences) + np.log(priors) - self.zeta[lengths - 1]
        bad = np.flatnonzero(~(np.isfinite(logp) & (logp <= 1e-9)))
        if len(bad):
            l, value = lengths[bad[0]], logp[bad[0]]
            raise ModelError(
                "%sa sentence of length %d has log p(l, x) = %.6g, not a finite value <= 0, so "
                "zeta_%d is below log Z_%d or the parameters diverged"
                % ("%s: " % self.path if self.path else "", l, value, l, l)
            )
        return logp

    def save(self, path):
        manifest = {
            "kind": "trf-model",
            "vocab": self.vocab.words,
            "unk_token": self.vocab.unk_token,
            "template_spec": self.template_spec,
            "has_discrete": self.has_discrete,
            "has_neural": self.has_neural,
            "templates": (
                [[t.source, list(t.offsets)] for t in self.feature_index.template_set.templates]
                if self.has_discrete
                else None
            ),
            "class_map": (
                None if self.class_map is None else [int(c) for c in self.class_map.word_to_class]
            ),
            "n_classes": None if self.class_map is None else self.class_map.n_classes,
        }
        # integer keys are exact in the container's float64 below 2**53
        keys = {}
        if self.has_discrete:
            keys = {_KEYS + str(t): a for t, a in enumerate(self.feature_index.key_arrays)}
        write_container(path, manifest, {"pi": self.prior.probs, **self.params(), **keys})

    @classmethod
    def load(cls, path) -> "TrfModel":
        manifest, arrays = read_checked(path, "trf-model")
        vocab = _vocabulary(path, manifest)
        L = arrays["pi"].size
        shapes = {"pi": (L,), "zeta": (L,)}
        class_map = None
        if manifest["class_map"] is not None:
            classes, n_classes = manifest["class_map"], manifest["n_classes"] or 0
            if len(classes) != vocab.size or not all(0 <= c < n_classes for c in classes):
                raise ModelError(
                    "%s: class_map must give each of the %d words a class id in [0, n_classes)"
                    % (path, vocab.size)
                )
            class_map = ClassMap(np.array(classes, dtype=np.int64), n_classes)
        if manifest["has_discrete"]:
            try:
                templates = [
                    feats.Template(src, tuple(offs)) for src, offs in manifest["templates"] or ()
                ]
            except feats.FeatureError as exc:
                raise ModelError("%s: manifest key 'templates': %s" % (path, exc)) from None
            if class_map is None and any(t.source == "class" for t in templates):
                raise ModelError("%s: class templates need a stored class_map" % path)
            # one (n, order) key array per template, and one weight per key
            names = [_KEYS + str(t) for t in range(len(templates))]
            for name, t in zip(names, templates):
                shapes[name] = arrays[name].shape[:1] + (t.order,)
            shapes["lam"] = (sum(shapes[name][0] for name in names),)
        phi_params = None
        if manifest["has_neural"]:
            phi_params = {k[len(_PHI) :]: v for k, v in arrays.items() if k.startswith(_PHI)}
            d, n_layers = _width(arrays[_PHI + "emb"]), neural.n_layers_of(phi_params)
            for k, s in neural.phi_shapes(vocab.size, d, n_layers).items():
                shapes[_PHI + k] = s
        check_arrays(path, arrays, shapes)
        feature_index = lam = None
        if manifest["has_discrete"]:
            for name, t in zip(names, templates):
                limit = vocab.size if t.source == "word" else class_map.n_classes
                if (arrays[name] >= limit).any():
                    raise ModelError(
                        "%s: bad feature keys: %s holds a %s value >= %d"
                        % (path, name, t.source, limit)
                    )
            try:
                feature_index = feats.FeatureIndex(
                    feats.TemplateSet(templates), [arrays[k] for k in names], class_map
                )
            except feats.FeatureError as exc:
                raise ModelError("%s: bad feature keys: %s" % (path, exc)) from None
            lam = arrays["lam"]
        model = cls(
            vocab,
            _length_prior(path, arrays["pi"]),
            arrays["zeta"],
            feature_index=feature_index,
            lam=lam,
            phi_params=phi_params,
            class_map=class_map,
            template_spec=manifest["template_spec"],
        )
        model.path = path
        return model


def save_noise_model(model, vocab: Vocabulary, path):
    """Noise-model sidecar file in the same container format."""
    manifest = {"kind": "noise-model", "vocab": vocab.words, "unk_token": vocab.unk_token}
    arrays = {"mu." + k: v for k, v in model.params.items()}
    write_container(path, manifest, {"pi": model.prior.probs, **arrays})


def load_noise_model(path):
    """The noise LM and vocabulary of a noise file; older files' manifest key V is ignored."""
    manifest, arrays = read_checked(path, "noise-model")
    vocab = _vocabulary(path, manifest)
    shapes = param_shapes(vocab.size, _width(arrays["mu.emb"]))
    declared = {"pi": (arrays["pi"].size,), **{"mu." + k: s for k, s in shapes.items()}}
    check_arrays(path, arrays, declared)
    noise = NoiseModel({k: arrays["mu." + k] for k in shapes}, _length_prior(path, arrays["pi"]))
    return noise, vocab
