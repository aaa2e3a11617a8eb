"""Discrete feature templates, the indexed feature table, and the linear potential."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import neural
from .corpus import ClassMap


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Template:
    source: str  # "word" or "class"
    offsets: tuple  # relative positions observed; (0,1,2) = contiguous trigram

    @property
    def order(self):
        return len(self.offsets)

    @property
    def span(self):
        return self.offsets[-1] + 1


@dataclass
class TemplateSet:
    templates: list
    max_order: int

    @property
    def n_cutoffs(self):
        """Number of cutoff digits needed, one per order up to the highest;
        skip trigrams are of order 3 whatever the max order."""
        return max([self.max_order] + [t.order for t in self.templates])


_SKIP_BIGRAM_GAPS = (1, 2, 3)
_SKIP_TRIGRAM_GAPS = (1, 2)


def compile_templates(spec: str, class_map_present=False, max_order=5) -> TemplateSet:
    """Build templates from a spec string like "w+c" or "w+c+ws+cs:5".

    "w"/"c": contiguous word/class n-grams of orders 1..max_order.
    "ws"/"cs": skip bigrams (x_i, x_{i+k+1}) for gaps k in 1..3 and skip
    trigrams (x_i, x_{i+1}, x_{i+k+2}) for gaps k in 1..2.
    """
    if ":" in spec:
        spec, order_str = spec.rsplit(":", 1)
        if not order_str.isdigit():
            raise FeatureError("max order must be an integer, got %r" % order_str)
        max_order = int(order_str)
    if max_order < 1:
        raise FeatureError("max order must be >= 1")
    parts = spec.split("+") if spec else []
    known = {"w", "c", "ws", "cs"}
    for p in parts:
        if p not in known:
            raise FeatureError("unknown feature type %r" % p)
        if p in ("c", "cs") and not class_map_present:
            raise FeatureError("feature type %r requires a class map" % p)
    templates = []
    for p in parts:
        source = "word" if p in ("w", "ws") else "class"
        if p in ("w", "c"):
            for n in range(1, max_order + 1):
                templates.append(Template(source, tuple(range(n))))
        else:
            for k in _SKIP_BIGRAM_GAPS:
                templates.append(Template(source, (0, k + 1)))
            for k in _SKIP_TRIGRAM_GAPS:
                templates.append(Template(source, (0, 1, k + 2)))
    if len(set(templates)) != len(templates):
        raise FeatureError("duplicate templates in spec %r" % spec)
    return TemplateSet(templates, max_order)


def parse_cutoffs(cutoff_str: str):
    """"00225" -> [0, 0, 2, 2, 5]: order-n features kept iff count > digit n."""
    if not cutoff_str.isdigit():
        raise FeatureError("cutoff string must be digits, got %r" % cutoff_str)
    return [int(c) for c in cutoff_str]


class FeatureIndex:
    """Compiled (template, value-tuple) -> dense index map.

    Keys surviving the per-order count cutoffs are indexed in (template
    id, value tuple) order, so the layout is independent of corpus
    traversal order. key_arrays holds them as one (n_t, order) integer
    array per template, rows in increasing order.
    """

    def __init__(self, template_set: TemplateSet, key_arrays, class_map: ClassMap | None):
        self.template_set = template_set
        self.class_map = class_map
        self.key_arrays = [np.asarray(a, dtype=np.int64) for a in key_arrays]
        if len(self.key_arrays) != len(template_set.templates) or any(
            a.ndim != 2 or a.shape[1] != t.order
            for a, t in zip(self.key_arrays, template_set.templates)
        ):
            raise FeatureError("need one (n, order) key array per template")
        self.keys = [
            (tid, values)
            for tid, a in enumerate(self.key_arrays)
            for values in zip(*a.T.tolist())
        ]  # list of (template_id, value_tuple)
        self.key_to_id = {k: i for i, k in enumerate(self.keys)}

    @property
    def n_features(self):
        return len(self.keys)

    def _placements(self, sentence):
        """Per template, an iterator over the value tuple of each in-bounds
        placement; the class sequence is computed once per sentence."""
        seqs = {"word": sentence}
        for template in self.template_set.templates:
            if template.source not in seqs:
                seqs["class"] = [self.class_of(w) for w in sentence]
            seq = seqs[template.source]
            n = max(len(seq) - template.span + 1, 0)
            yield zip(*(seq[o : o + n] for o in template.offsets))

    def class_of(self, word_id):
        if self.class_map is None:
            raise FeatureError("class features requested but no class map present")
        return self.class_map.class_of(word_id)


def _kept_keys(columns, cutoff):
    """The distinct rows of the placement columns occurring more than
    cutoff times, as an (n, order) array in increasing row order."""
    order = np.lexsort(columns[::-1])  # lexsort's last key is the primary one
    columns = [c[order] for c in columns]
    changed = np.zeros(max(len(order) - 1, 0), dtype=bool)
    for c in columns:
        changed |= c[1:] != c[:-1]
    first = np.flatnonzero(np.concatenate(([True], changed)))
    counts = np.diff(first, append=len(order))
    first = first[counts > cutoff]
    return np.stack([c[first] for c in columns], axis=1)


def build_feature_index(
    sentences, template_set: TemplateSet, cutoffs, class_map=None
) -> FeatureIndex:
    """Count every template placement over the corpus and keep keys with
    count strictly greater than the cutoff for their order.

    The corpus is laid out once as a padded (T, B) id matrix, longest
    sentence first; the placements of a template are its offset columns
    at every in-bounds position, and sorting them groups equal keys.
    """
    if isinstance(cutoffs, str):
        cutoffs = parse_cutoffs(cutoffs)
    if len(cutoffs) < template_set.n_cutoffs:
        raise FeatureError("need %d cutoffs, got %d" % (template_set.n_cutoffs, len(cutoffs)))
    needs_classes = any(t.source == "class" for t in template_set.templates)
    if needs_classes and class_map is None:
        raise FeatureError("templates use class features but no class map given")
    ids, n, _ = neural.pack(sentences or [()])  # an empty corpus as one empty sentence
    seqs = {"word": ids}
    if needs_classes:
        seqs["class"] = class_map.word_to_class[ids]
    in_bounds = neural.real_tokens(n, ids.shape[1])
    key_arrays = []
    for t in template_set.templates:
        # a placement at position p is in bounds iff its last token p + span - 1 is
        mask = in_bounds[t.span - 1 :]
        columns = [seqs[t.source][o : o + len(mask)][mask] for o in t.offsets]
        key_arrays.append(_kept_keys(columns, cutoffs[t.order - 1]))
    return FeatureIndex(template_set, key_arrays, class_map)


def extract(sentence, index: FeatureIndex):
    """Sparse feature vector f(x^l) as (feature id, count) pairs, ids increasing."""
    keys = (zip(repeat(tid), values) for tid, values in enumerate(index._placements(sentence)))
    ids = [f for k in keys for f in map(index.key_to_id.get, k) if f is not None]
    return sorted(Counter(ids).items())


def extract_batch(sentences, index: FeatureIndex):
    """The sparse feature vectors of a batch as flat arrays (row, fid, count):
    row j lists extract(sentences[j]), one extract call per sentence."""
    pairs = [extract(s, index) for s in sentences]
    row = np.repeat(np.arange(len(pairs)), [len(p) for p in pairs])
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(pairs)), np.int64, 2 * len(row))
    fid, counts = flat.reshape(-1, 2).T
    return row, fid, counts


def batch_potential(occurrences, lam, n_rows) -> np.ndarray:
    """lambda^T f(x) for each row of an extract_batch result, summed in the
    same order as linear_potential."""
    row, fid, counts = occurrences
    return np.bincount(row, weights=lam[fid] * counts, minlength=n_rows)


def batch_gradient(occurrences, weights, n_features) -> np.ndarray:
    """sum_j weights[j] f(x_j) over the rows of an extract_batch result."""
    row, fid, counts = occurrences
    return np.bincount(fid, weights=weights[row] * counts, minlength=n_features)


def linear_potential(sentence, index: FeatureIndex, lam: np.ndarray) -> float:
    """lambda^T f(x^l) over the sparse extraction."""
    if len(lam) != index.n_features:
        raise FeatureError(
            "lambda has %d entries, feature index has %d" % (len(lam), index.n_features)
        )
    return float(sum(c * lam[fid] for fid, c in extract(sentence, index)))
