"""Corpus ingestion: vocabulary, encoding, length prior, and word classes."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

UNK_TOKEN = "<unk>"
_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape decoding kept


class CorpusError(ValueError):
    pass


def read_lines(path):
    """(line number, line without its newline) for each nonblank line of a
    UTF-8 text file. A file that does not decode raises CorpusError naming
    path:line of the first line that holds a bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.isspace():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        # valid UTF-8 never decodes to a lone surrogate, so the first one is the bad byte
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            bad = next(n for n, line in enumerate(fh, 1) if _ESCAPED.search(line))
        raise CorpusError("%s:%d: not UTF-8 text" % (path, bad)) from None


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


def encode(line: str, vocab: Vocabulary) -> tuple:
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
    return encode_lines((line for _, line in read_lines(path)), vocab, max_length)


def encode_lines(lines, vocab: Vocabulary, max_length=None):
    """read_corpus on lines already read: the nonblank lines of a file."""
    sentences = []
    for line in lines:
        s = encode(line, vocab)
        if max_length is None or len(s) <= max_length:
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

    def save(self, path, vocab: Vocabulary):
        with open(path, "w", encoding="utf-8") as fh:
            for i, w in enumerate(vocab.words):
                fh.write("%s\t%d\n" % (w, self.word_to_class[i]))

    @classmethod
    def load(cls, path, vocab: Vocabulary):
        mapping = np.full(vocab.size, -1, dtype=np.int64)
        n_classes = 0
        for lineno, line in read_lines(path):
            fields = line.split("\t")
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
    return v * np.log(np.where(v > 0, v, 1.0))


def cluster_words(
    sentences, vocab: Vocabulary, n_classes, max_iters=20, seed=0
) -> ClassMap:
    """Exchange clustering maximizing the class-bigram log-likelihood.

    Words start in classes assigned round-robin by frequency rank; each
    sweep takes every word out of its class and puts it back into the class
    that scores best (Martin, Liermann & Ney 1998), or where it was unless
    another class gains more than 1e-9. Deterministic given the seed.
    """
    V, C = vocab.size, n_classes
    if C > V:
        raise CorpusError("n_classes (%d) exceeds vocabulary size (%d)" % (C, V))
    if C < 1:
        raise CorpusError("n_classes must be >= 1")
    if not sentences:
        raise CorpusError("empty corpus")

    counts = np.bincount(np.fromiter(chain.from_iterable(sentences), np.int64), minlength=V)
    u = np.fromiter(chain.from_iterable(s[:-1] for s in sentences), np.int64)
    v = np.fromiter(chain.from_iterable(s[1:] for s in sentences), np.int64)
    # bigrams (left, right, n) without the self-bigrams, sorted by left word,
    # with row starts by left word and, through by_right, by right word
    self_pair = u == v
    n_self = np.bincount(u[self_pair], minlength=V)
    keys, n = np.unique((u * V + v)[~self_pair], return_counts=True)
    left, right = keys // V, keys % V
    by_right = np.argsort(right, kind="stable")
    left_start = np.searchsorted(left, np.arange(V + 1))
    right_start = np.searchsorted(right[by_right], np.arange(V + 1))

    # round-robin init by frequency rank, ties broken by word id
    cls = np.argsort(np.argsort(-counts, kind="stable")) % C
    M = np.bincount(cls[u] * C + cls[v], minlength=C * C).reshape(C, C).astype(np.float64)

    rng = np.random.default_rng(seed)
    for _ in range(max_iters):
        before = cls.copy()
        for w in rng.permutation(V):
            out = slice(left_start[w], left_start[w + 1])
            into = by_right[right_start[w] : right_start[w + 1]]
            s = np.bincount(cls[right[out]], n[out], C)  # w's bigrams into each class
            p = np.bincount(cls[left[into]], n[into], C)  # each class's bigrams into w
            a = cls[w]
            M[a] -= s
            M[:, a] -= p
            M[a, a] -= n_self[w]
            # gain[b] is the objective, up to a constant, with w in class b: row b
            # gains s, column b gains p, cell (b, b) also n_self; wherever w goes,
            # row sum c gains p[c] and column sum c s[c], and row and column b more
            d, X = np.diagonal(M), _xlogx(M)
            l, r = M.sum(axis=1) + p, M.sum(axis=0) + s
            gain = (
                _xlogx(M + s).sum(axis=1) - X.sum(axis=1) - _xlogx(d + s)
                + _xlogx(M + p[:, None]).sum(axis=0) - X.sum(axis=0) - _xlogx(d + p)
                + _xlogx(d + s + p + n_self[w]) + np.diagonal(X)
                - _xlogx(l + s.sum() + n_self[w]) + _xlogx(l)
                - _xlogx(r + p.sum() + n_self[w]) + _xlogx(r)
            )
            delta = gain - gain[a]
            b = a
            for c in np.flatnonzero(delta > 1e-9):
                if delta[c] > delta[b] + 1e-9:
                    b = c
            M[b] += s
            M[:, b] += p
            M[b, b] += n_self[w]
            cls[w] = b
        if np.array_equal(cls, before):
            break

    # a class empties only by a merge, which never raises the likelihood, so
    # only through rounding; the class ids are made contiguous all the same
    used, cls = np.unique(cls, return_inverse=True)
    return ClassMap(cls, len(used))
