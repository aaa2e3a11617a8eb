"""Discrete feature templates, the indexed feature table, and the linear potential."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import ClassMap


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Template:
    source: str  # "word" or "class"
    offsets: tuple  # relative positions observed; (0,1,2) = contiguous trigram

    def __post_init__(self):
        if self.source not in ("word", "class"):
            raise FeatureError("template source %r is not word or class" % (self.source,))
        offs = self.offsets
        rising = all(type(o) is int for o in offs) and list(offs) == sorted(set(offs))
        if offs[:1] != (0,) or not rising:
            raise FeatureError(
                "template offsets %r are not ints that strictly increase from 0" % (offs,)
            )

    @property
    def order(self):
        return len(self.offsets)

    @property
    def span(self):
        return self.offsets[-1] + 1


@dataclass
class TemplateSet:
    templates: list
    max_order: int = 0  # compile_templates' max order; only n_cutoffs reads it

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


def checked_cutoffs(template_set: TemplateSet, cutoffs) -> list:
    """cutoffs as a list (a digit string is parsed), refused unless it has
    exactly one count per order up to template_set.n_cutoffs."""
    if isinstance(cutoffs, str):
        cutoffs = parse_cutoffs(cutoffs)
    if len(cutoffs) != template_set.n_cutoffs:
        raise FeatureError("need %d cutoffs, got %d" % (template_set.n_cutoffs, len(cutoffs)))
    return cutoffs


_CODE_LIMIT = 2**62  # level codes stay below this, so folding never overflows
_END = np.iinfo(np.int64).max  # ends each level table, so a search stays in it


class FeatureIndex:
    """Compiled (template, value-tuple) -> dense index map.

    Keys surviving the per-order count cutoffs are indexed in (template
    id, value tuple) order, so the layout is independent of corpus
    traversal order. key_arrays holds them as one (n_t, order) integer
    array per template, rows in increasing order; template t's ids start
    at firsts[t], and folds[t] holds its keys' level codes (see _fold).
    Callers pass arrays of that shape; TrfModel.load checks a file's.
    """

    def __init__(self, template_set: TemplateSet, key_arrays, class_map: ClassMap | None):
        self.template_set = template_set
        self.class_map = class_map
        self.key_arrays = [_key_array(a) for a in key_arrays]
        sizes = [len(a) for a in self.key_arrays]
        self.n_features = sum(sizes)
        self.firsts = np.cumsum([0, *sizes[:-1]])
        self.folds = []
        for a in self.key_arrays:
            fold, rank = _fold(list(a.T))
            # rank orders the rows, so it counts up iff they strictly increase
            if not np.array_equal(rank, np.arange(len(a))):
                raise FeatureError("feature key rows must be strictly increasing within a template")
            self.folds.append(fold)


def _key_array(a):
    """One template's (n, order) keys as int64, refused unless whole numbers >= 0."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not (np.isfinite(a) & (a == np.floor(a))).all():
        raise FeatureError("feature key values must be whole numbers")
    if (a < 0).any():
        raise FeatureError("feature key values must be >= 0")
    return a.astype(np.int64)


def _fold(columns):
    """Rank the rows of a table given as columns of values >= 0. With R_j
    column j's maximum plus 1, the columns fold left to right into int64
    codes, code = rank * R_j + value, rank being the prefix's rank one
    level up; a level takes columns while its code space stays below
    2**62. Returns ((R_j, tables, starts), rank): each level's sorted
    distinct codes then _END, the column where each level after the first
    starts, and each row's rank at the last level, in lexicographic order."""
    radices = [int(c.max(initial=0)) + 1 for c in columns]
    tables, starts = [], []
    code, space = np.zeros(len(columns[0]), np.int64), 1
    for j, (column, radix) in enumerate(zip(columns, radices)):
        if space * radix >= _CODE_LIMIT:
            table, code = np.unique(code, return_inverse=True)
            tables.append(np.append(table, _END))
            starts.append(j)
            space = len(table)
            if space * radix >= _CODE_LIMIT:
                raise FeatureError("feature values up to %d are too large to index" % radix)
        code = code * radix + column
        space *= radix
    table, code = np.unique(code, return_inverse=True)
    return (radices, tables + [np.append(table, _END)], starts), code


def _flatten(sentences, template_set: TemplateSet, class_map):
    """A batch as flat arrays: each token's sentence, the tokens from it to
    that sentence's end, and the words, then their classes if a template
    reads them."""
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    words = np.fromiter(chain.from_iterable(sentences), np.int64, int(lengths.sum()))
    sentence_of = np.repeat(np.arange(len(sentences)), lengths)
    seqs = [words]
    if any(t.source == "class" for t in template_set.templates):
        if class_map is None:
            raise FeatureError("templates use class features but no class map given")
        seqs.append(class_map.word_to_class[words])
    room = np.cumsum(lengths)[sentence_of] - np.arange(len(words))
    return sentence_of, room, np.concatenate(seqs)


def _placements(flat, template: Template):
    """Every in-bounds placement of a template over a flattened batch, as
    (row, columns): each placement's sentence and the value at each of the
    template's offsets. A placement at p is in bounds iff the template's
    span fits in the tokens from p to its sentence's end."""
    sentence_of, room, seqs = flat
    start = np.flatnonzero(room >= template.span)
    base = start + len(room) if template.source == "class" else start
    return sentence_of[start], [seqs[base + o] for o in template.offsets]


def build_feature_index(
    sentences, template_set: TemplateSet, cutoffs, class_map=None
) -> FeatureIndex:
    """Count every template placement over the corpus and keep keys with
    count strictly greater than the cutoff for their order.

    One template at a time: its placements are extract's, and folding
    their columns ranks equal keys together, in value order.
    """
    cutoffs = checked_cutoffs(template_set, cutoffs)
    flat = _flatten(sentences, template_set, class_map)
    key_arrays = []
    for t in template_set.templates:
        columns = _placements(flat, t)[1]
        rank = _fold(columns)[1]
        counts = np.bincount(rank)
        first = np.empty(len(counts), np.int64)
        first[rank] = np.arange(len(rank))  # a placement of each distinct key, in key order
        kept = first[counts > cutoffs[t.order - 1]]
        key_arrays.append(np.stack([c[kept] for c in columns], axis=1))
    return FeatureIndex(template_set, key_arrays, class_map)


def extract(sentences, index: FeatureIndex):
    """The sparse feature vectors f(x) of a batch as flat arrays (row, fid,
    count): rows increasing, feature ids increasing within a row."""
    flat = _flatten(sentences, index.template_set, index.class_map)
    keyed = [np.zeros(0, np.int64)]
    for t, (radices, tables, starts), first in zip(
        index.template_set.templates, index.folds, index.firsts
    ):
        row, columns = _placements(flat, t)
        hit, code = True, 0
        bounds = [0, *starts, len(columns)]
        for table, lo, hi in zip(tables, bounds, bounds[1:]):
            for column, radix in zip(columns[lo:hi], radices[lo:hi]):
                hit &= column < radix  # no key has this value
                code = code * radix + np.minimum(column, radix - 1)
            rank = np.searchsorted(table, code)
            hit &= table[rank] == code
            code = rank  # at the last level, the key's rank in its template
        keyed.append(row[hit] * index.n_features + first + code[hit])
    keyed, counts = np.unique(np.concatenate(keyed), return_counts=True)
    row, fid = np.divmod(keyed, max(index.n_features, 1))
    return row, fid, counts


def batch_potential(occurrences, lam, n_rows) -> np.ndarray:
    """lambda^T f(x) for each row of an extract result."""
    row, fid, counts = occurrences
    return np.bincount(row, weights=lam[fid] * counts, minlength=n_rows)


def batch_gradient(occurrences, weights, n_features) -> np.ndarray:
    """sum_j weights[j] f(x_j) over the rows of an extract result."""
    row, fid, counts = occurrences
    return np.bincount(fid, weights=weights[row] * counts, minlength=n_features)


def linear_potential(sentence, index: FeatureIndex, lam: np.ndarray) -> float:
    """lambda^T f(x^l) of one sentence."""
    if len(lam) != index.n_features:
        raise FeatureError(
            "lambda has %d entries, feature index has %d" % (len(lam), index.n_features)
        )
    return float(batch_potential(extract([sentence], index), lam, 1)[0])
