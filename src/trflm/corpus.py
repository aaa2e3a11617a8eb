"""Corpus ingestion: vocabulary, encoding, length prior, and word classes."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

UNK_TOKEN = "<unk>"

# A sentence is a tuple of word ids; its length is len(sentence).
Sentence = tuple


class CorpusError(ValueError):
    pass


class Vocabulary:
    """Fixed word<->id mapping with a dedicated unknown token.

    Ids are contiguous, 0 .. size-1, and the unk token is always id 0.
    """

    def __init__(self, words, unk_token=UNK_TOKEN):
        self.words = list(words)
        self.ids = {w: i for i, w in enumerate(self.words)}
        if len(self.ids) != len(self.words):
            raise CorpusError("duplicate words in vocabulary")
        if unk_token not in self.ids:
            raise CorpusError("unk token %r missing from vocabulary" % unk_token)
        self.unk_token = unk_token
        self.unk_id = self.ids[unk_token]

    @property
    def size(self):
        return len(self.words)

    def id_of(self, word):
        return self.ids.get(word, self.unk_id)

    def __len__(self):
        return len(self.words)

    def __eq__(self, other):
        return (
            isinstance(other, Vocabulary)
            and self.words == other.words
            and self.unk_token == other.unk_token
        )


def build_vocab(corpus_lines, max_size, unk_token=UNK_TOKEN) -> Vocabulary:
    """Keep the ``max_size - 1`` most frequent words plus the unk token.

    Frequency ties are broken lexicographically so the result is
    deterministic. Occurrences of the unk token itself in the corpus are
    ignored (they map to unk anyway).
    """
    counts = Counter()
    for line in corpus_lines:
        counts.update(t for t in line.split() if t != unk_token)
    if not counts:
        raise CorpusError("empty corpus: no tokens found")
    if max_size < 1:
        raise CorpusError("max_size must be >= 1")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [w for w, _ in ranked[: max_size - 1]]
    return Vocabulary([unk_token] + kept, unk_token=unk_token)


def encode(line: str, vocab: Vocabulary) -> Sentence:
    """Whitespace-tokenize and map to word ids; OOV tokens become unk."""
    tokens = line.split()
    if not tokens:
        raise CorpusError("cannot encode an empty line")
    return tuple(vocab.id_of(t) for t in tokens)


def decode(sentence, vocab: Vocabulary) -> str:
    return " ".join(vocab.words[i] for i in sentence)


def read_corpus(path, vocab: Vocabulary, max_length=None):
    """Encode a one-sentence-per-line file; blank lines are skipped.

    Sentences longer than max_length are omitted, never truncated.
    """
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.split():
                continue
            s = encode(line, vocab)
            if max_length is not None and len(s) > max_length:
                continue
            sentences.append(s)
    return sentences


@dataclass
class LengthPrior:
    """Empirical probability of each sentence length 1..L."""

    probs: np.ndarray  # shape (L,), probs[l-1] = P(length = l)

    @property
    def max_length(self):
        return len(self.probs)

    def prob(self, l):
        if not 1 <= l <= len(self.probs):
            return 0.0
        return float(self.probs[l - 1])

    def log_prob(self, l):
        p = self.prob(l)
        if p <= 0.0:
            raise CorpusError("length %d has zero prior probability" % l)
        return math.log(p)


def length_prior(sentences, L) -> LengthPrior:
    """Count lengths over sentences with 1 <= l <= L; longer ones are skipped."""
    if L < 1:
        raise CorpusError("L must be >= 1")
    counts = np.zeros(L, dtype=np.float64)
    total = 0
    for s in sentences:
        l = len(s)
        if 1 <= l <= L:
            counts[l - 1] += 1
            total += 1
    if total == 0:
        raise CorpusError("no sentences of length <= %d" % L)
    return LengthPrior(counts / total)


@dataclass
class ClassMap:
    """Deterministic word -> class assignment."""

    word_to_class: np.ndarray  # shape (V,), int
    n_classes: int

    def class_of(self, word_id):
        return int(self.word_to_class[word_id])

    def save(self, path, vocab: Vocabulary):
        with open(path, "w", encoding="utf-8") as fh:
            for i, w in enumerate(vocab.words):
                fh.write("%s\t%d\n" % (w, self.word_to_class[i]))

    @classmethod
    def load(cls, path, vocab: Vocabulary):
        mapping = np.full(vocab.size, -1, dtype=np.int64)
        n_classes = 0
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                where = "%s:%d: " % (path, lineno)
                if len(fields) != 2:
                    raise CorpusError(where + "expected 'word<TAB>class id', got %r" % line)
                word, cid = fields
                try:
                    c = int(cid)
                except ValueError:
                    c = -1
                if c < 0:
                    raise CorpusError(where + "class id %r is not an integer >= 0" % cid)
                if word not in vocab.ids:
                    # mapping it to <unk> would overwrite <unk>'s own class
                    raise CorpusError(where + "word %r is not in the vocabulary" % word)
                if mapping[vocab.ids[word]] >= 0:
                    raise CorpusError(where + "word %r is listed twice" % word)
                mapping[vocab.ids[word]] = c
                n_classes = max(n_classes, c + 1)
        if (mapping < 0).any():
            raise CorpusError("class map file does not cover the vocabulary")
        return cls(mapping, n_classes)


def _xlogx(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def cluster_words(
    sentences, vocab: Vocabulary, n_classes, max_iters=20, seed=0
) -> ClassMap:
    """Exchange clustering maximizing the class-bigram log-likelihood.

    Words start in classes assigned round-robin by frequency rank; each
    sweep tries to move every word to its best class. Accepted moves
    never decrease the objective. Deterministic given the seed.
    """
    V = vocab.size
    if n_classes > V:
        raise CorpusError("n_classes (%d) exceeds vocabulary size (%d)" % (n_classes, V))
    if n_classes < 1:
        raise CorpusError("n_classes must be >= 1")
    if not sentences:
        raise CorpusError("empty corpus")

    word_counts = np.zeros(V, dtype=np.int64)
    succ = defaultdict(Counter)  # succ[w][v] = count of bigram (w, v)
    for s in sentences:
        for w in s:
            word_counts[w] += 1
        for u, v in zip(s, s[1:]):
            succ[u][v] += 1
    pred = defaultdict(Counter)
    for u, cnt in succ.items():
        for v, c in cnt.items():
            pred[v][u] += c

    # frequency-rank round-robin init, ties broken by word id
    order = sorted(range(V), key=lambda w: (-word_counts[w], w))
    cls = np.empty(V, dtype=np.int64)
    for rank, w in enumerate(order):
        cls[w] = rank % n_classes

    M = np.zeros((n_classes, n_classes), dtype=np.float64)
    for u, cnt in succ.items():
        for v, c in cnt.items():
            M[cls[u], cls[v]] += c

    def word_vectors(w):
        s_vec = np.zeros(n_classes)
        for v, c in succ[w].items():
            if v != w:
                s_vec[cls[v]] += c
        p_vec = np.zeros(n_classes)
        for u, c in pred[w].items():
            if u != w:
                p_vec[cls[u]] += c
        return s_vec, p_vec, succ[w].get(w, 0)

    def move_delta(a, b, s_vec, p_vec, n_ww):
        # new contents of rows a,b and columns a,b after moving w: a -> b
        row_a = M[a].copy()
        row_b = M[b].copy()
        row_a -= s_vec
        row_b += s_vec
        row_a[a] -= p_vec[a]
        row_a[b] += p_vec[a]
        row_b[a] -= p_vec[b]
        row_b[b] += p_vec[b]
        row_a[a] -= n_ww
        row_b[b] += n_ww
        col_a = M[:, a] - p_vec
        col_b = M[:, b] + p_vec
        others = np.ones(n_classes, dtype=bool)
        others[[a, b]] = False
        delta = (
            _xlogx(row_a).sum()
            + _xlogx(row_b).sum()
            - _xlogx(M[a]).sum()
            - _xlogx(M[b]).sum()
            + _xlogx(col_a[others]).sum()
            + _xlogx(col_b[others]).sum()
            - _xlogx(M[others, a]).sum()
            - _xlogx(M[others, b]).sum()
        )
        s_tot = s_vec.sum() + n_ww
        p_tot = p_vec.sum() + n_ww
        l_sum = M.sum(axis=1)
        r_sum = M.sum(axis=0)

        def xl(x):
            return x * math.log(x) if x > 0 else 0.0

        delta -= (
            xl(l_sum[a] - s_tot)
            + xl(l_sum[b] + s_tot)
            - xl(l_sum[a])
            - xl(l_sum[b])
        )
        delta -= (
            xl(r_sum[a] - p_tot)
            + xl(r_sum[b] + p_tot)
            - xl(r_sum[a])
            - xl(r_sum[b])
        )
        return float(delta)

    def apply_move(w, a, b, s_vec, p_vec, n_ww):
        M[a] -= s_vec
        M[b] += s_vec
        M[:, a] -= p_vec
        M[:, b] += p_vec
        M[a, a] -= n_ww
        M[b, b] += n_ww
        cls[w] = b

    rng = np.random.default_rng(seed)
    for _ in range(max_iters):
        moved = False
        for w in rng.permutation(V):
            a = int(cls[w])
            s_vec, p_vec, n_ww = word_vectors(w)
            best_b, best_delta = a, 0.0
            for b in range(n_classes):
                if b == a:
                    continue
                d = move_delta(a, b, s_vec, p_vec, n_ww)
                if d > best_delta + 1e-9:
                    best_b, best_delta = b, d
            if best_b != a:
                apply_move(w, a, best_b, s_vec, p_vec, n_ww)
                moved = True
        if not moved:
            break

    # relabel classes contiguously in case some emptied out
    used = sorted(set(int(c) for c in cls))
    if len(used) != n_classes:
        remap = {c: i for i, c in enumerate(used)}
        cls = np.array([remap[int(c)] for c in cls], dtype=np.int64)
        n_classes = len(used)
    return ClassMap(cls, n_classes)
