import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import corpus

import helpers


def test_build_vocab_frequency_and_ties():
    # counts: a:2, b:2, c:1 -> keep a, b; ties by lexicographic order
    vocab = corpus.build_vocab(["a b a", "b c"], max_size=3)
    assert vocab.words == ["<unk>", "a", "b"]
    assert vocab.id_of("c") == vocab.unk_id


def test_build_vocab_all_words_fit():
    vocab = corpus.build_vocab(["a"], max_size=10)
    assert vocab.size == 2
    assert set(vocab.words) == {"<unk>", "a"}


def test_build_vocab_empty_stream():
    with pytest.raises(corpus.CorpusError):
        corpus.build_vocab([], max_size=3)
    with pytest.raises(corpus.CorpusError):
        corpus.build_vocab(["   ", ""], max_size=3)


def test_vocab_lookup_roundtrip():
    vocab = corpus.build_vocab(["a b c d"], max_size=5)
    for i, w in enumerate(vocab.words):
        assert vocab.id_of(w) == i


def test_encode_basic_and_oov():
    vocab = corpus.Vocabulary(["<unk>", "a", "b"])
    assert corpus.encode("a b", vocab) == (1, 2)
    assert corpus.encode("a z", vocab) == (1, 0)
    with pytest.raises(corpus.CorpusError):
        corpus.encode("", vocab)


def test_encode_decode_identity_in_vocab():
    vocab = corpus.Vocabulary(["<unk>", "a", "b", "c"])
    text = "a c b b a"
    assert corpus.decode(corpus.encode(text, vocab), vocab) == text


def test_length_prior_counts():
    prior = corpus.length_prior([(1, 2), (3, 4), (1, 2, 3)], L=3)
    assert np.allclose(prior.probs, [0, 2 / 3, 1 / 3])
    assert abs(prior.probs.sum() - 1.0) < 1e-12


def test_length_prior_skips_long():
    prior = corpus.length_prior([(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)], L=3)
    assert np.allclose(prior.probs, [1 / 3, 1 / 3, 1 / 3])


def test_length_prior_all_skipped():
    with pytest.raises(corpus.CorpusError):
        corpus.length_prior([(1, 2, 3, 4, 5)], L=3)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_length_prior_sums_to_one(lengths):
    sentences = [tuple(range(l)) for l in lengths]
    prior = corpus.length_prior(sentences, L=6)
    assert abs(prior.probs.sum() - 1.0) < 1e-12


def _toy_sentences(vocab, lines):
    return [corpus.encode(line, vocab) for line in lines]


def test_cluster_singleton_classes_equal_bigram_ll():
    vocab = corpus.Vocabulary(["<unk>", "a", "b", "c"])
    sents = _toy_sentences(vocab, ["a b c a b", "b a c", "c c a b"])
    cmap = corpus.cluster_words(sents, vocab, n_classes=vocab.size, seed=0)
    assert cmap.n_classes == vocab.size
    assert len(set(cmap.word_to_class.tolist())) == vocab.size
    obj = helpers.clustering_objective(sents, cmap.word_to_class, cmap.n_classes)
    ident = helpers.clustering_objective(sents, np.arange(vocab.size), vocab.size)
    assert obj == pytest.approx(ident, abs=1e-9)


def test_cluster_single_class():
    vocab = corpus.Vocabulary(["<unk>", "a", "b"])
    sents = _toy_sentences(vocab, ["a b a", "b b"])
    cmap = corpus.cluster_words(sents, vocab, n_classes=1, seed=3)
    assert (cmap.word_to_class == 0).all()


def test_cluster_too_many_classes():
    vocab = corpus.Vocabulary(["<unk>", "a"])
    with pytest.raises(corpus.CorpusError):
        corpus.cluster_words([(1,)], vocab, n_classes=5)


def test_cluster_recovers_interchangeable_words():
    # a,b share contexts; c,d share contexts; the optimal 2-way partition
    # co-clusters each pair. Verified against brute-force enumeration.
    vocab = corpus.Vocabulary(["<unk>", "a", "b", "c", "d"])
    lines = [
        "a c a d b c b d",
        "c a d b c b d a",
        "a c b d a d b c",
        "b c a d b c a d",
    ]
    sents = _toy_sentences(vocab, lines)
    cmap = corpus.cluster_words(sents, vocab, n_classes=2, seed=1, max_iters=50)
    cls = cmap.word_to_class
    assert cls[vocab.id_of("a")] == cls[vocab.id_of("b")]
    assert cls[vocab.id_of("c")] == cls[vocab.id_of("d")]
    assert cls[vocab.id_of("a")] != cls[vocab.id_of("c")]

    best = -np.inf
    for assignment in itertools.product([0, 1], repeat=vocab.size):
        obj = helpers.clustering_objective(sents, np.array(assignment), 2)
        best = max(best, obj)
    got = helpers.clustering_objective(sents, cls, cmap.n_classes)
    assert got == pytest.approx(best, abs=1e-9)


def test_cluster_deterministic_given_seed():
    vocab = corpus.Vocabulary(["<unk>", "a", "b", "c", "d", "e"])
    sents = _toy_sentences(vocab, ["a b c d e a", "e d c b a", "a c e b d"])
    m1 = corpus.cluster_words(sents, vocab, n_classes=3, seed=9)
    m2 = corpus.cluster_words(sents, vocab, n_classes=3, seed=9)
    assert (m1.word_to_class == m2.word_to_class).all()


def test_cluster_objective_non_decreasing_vs_init():
    vocab = corpus.Vocabulary(["<unk>", "a", "b", "c", "d"])
    sents = _toy_sentences(vocab, ["a b a b c d c d", "b a d c", "a b c d"])
    word_counts = np.zeros(vocab.size, dtype=np.int64)
    for s in sents:
        for w in s:
            word_counts[w] += 1
    order = sorted(range(vocab.size), key=lambda w: (-word_counts[w], w))
    init = np.empty(vocab.size, dtype=np.int64)
    for rank, w in enumerate(order):
        init[w] = rank % 2
    init_obj = helpers.clustering_objective(sents, init, 2)
    cmap = corpus.cluster_words(sents, vocab, n_classes=2, seed=0)
    final_obj = helpers.clustering_objective(sents, cmap.word_to_class, cmap.n_classes)
    assert final_obj >= init_obj - 1e-9


_BUNDLED = Path(__file__).resolve().parent.parent / "data" / "train.txt"


def _cluster_as_reference(sents, vocab, n_classes, max_iters, seed):
    got = corpus.cluster_words(sents, vocab, n_classes, max_iters=max_iters, seed=seed)
    want = helpers.reference_cluster_words(sents, vocab, n_classes, max_iters=max_iters, seed=seed)
    assert got.n_classes == want.n_classes
    assert got.word_to_class.tolist() == want.word_to_class.tolist()
    return got


@pytest.mark.parametrize(
    "vocab_size, n_classes, seed, max_iters",
    [(40, 1, 0, 2), (40, 40, 1, 3), (30, 6, 3, 20), (200, 20, 2, 2), (400, 60, 0, 1)],
)
def test_cluster_equals_reference_on_bundled_corpus(vocab_size, n_classes, seed, max_iters):
    lines = _BUNDLED.read_text(encoding="utf-8").splitlines()
    vocab = corpus.build_vocab(lines, vocab_size)
    sents = [corpus.encode(line, vocab) for line in lines if line.split()]
    _cluster_as_reference(sents, vocab, n_classes, max_iters, seed)


def test_cluster_breaks_ties_toward_the_lowest_class_like_reference():
    # words 0 and 6 are interchangeable, so at one step two classes gain
    # exactly as much; the first one scanned must win, as in the reference
    vocab = corpus.Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, 7)])
    sents = [(4,), (5, 1, 4), (6, 1, 3), (4,), (5, 1, 4), (0, 1, 3)]
    got = _cluster_as_reference(sents, vocab, 4, max_iters=3, seed=0)
    assert got.word_to_class.tolist() == [1, 0, 2, 2, 1, 3, 1]


@st.composite
def _clustering_case(draw):
    V = draw(st.integers(min_value=2, max_value=8))
    word = st.integers(min_value=0, max_value=V - 1)
    sents = draw(st.lists(st.lists(word, min_size=1, max_size=7), min_size=1, max_size=10))
    n_classes = draw(st.integers(min_value=1, max_value=V))
    seed = draw(st.integers(min_value=0, max_value=5))
    max_iters = draw(st.integers(min_value=1, max_value=5))
    return V, [tuple(s) for s in sents], n_classes, seed, max_iters


@given(_clustering_case())
@settings(max_examples=200, deadline=None)
def test_cluster_equals_reference_on_random_corpora(case):
    V, sents, n_classes, seed, max_iters = case
    vocab = corpus.Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])
    _cluster_as_reference(sents, vocab, n_classes, max_iters, seed)


def test_class_map_file_roundtrip(tmp_path):
    vocab = corpus.Vocabulary(["<unk>", "a", "b"])
    cmap = corpus.ClassMap(np.array([0, 1, 0]), 2)
    path = tmp_path / "classes.txt"
    cmap.save(path, vocab)
    loaded = corpus.ClassMap.load(path, vocab)
    assert (loaded.word_to_class == cmap.word_to_class).all()
    assert loaded.n_classes == 2


def test_class_map_rejects_word_outside_vocabulary(tmp_path):
    # mapped onto <unk>, "zzz" would silently give <unk> class 1
    vocab = corpus.Vocabulary(["<unk>", "a", "b"])
    path = tmp_path / "classes.txt"
    path.write_text("<unk>\t0\na\t1\nzzz\t1\nb\t0\n")
    with pytest.raises(corpus.CorpusError, match=r"classes\.txt:3: word 'zzz'"):
        corpus.ClassMap.load(path, vocab)


BAD_CLASS_MAPS = {
    "no-tab": ("<unk>\t0\na 1\nb\t0\n", r"classes\.txt:2: expected 'word<TAB>class id'"),
    "two-tabs": ("<unk>\t0\na\t1\t1\nb\t0\n", r"classes\.txt:2: expected"),
    "non-integer-class": ("<unk>\t0\na\tx\nb\t0\n", r"classes\.txt:2: class id 'x'"),
    "negative-class": ("<unk>\t0\na\t-1\nb\t0\n", r"classes\.txt:2: class id '-1'"),
    "word-listed-twice": ("<unk>\t0\na\t1\nb\t0\na\t3\n", r"classes\.txt:4: word 'a' is listed twice"),
}


@pytest.mark.parametrize("case", BAD_CLASS_MAPS, ids=list(BAD_CLASS_MAPS))
def test_class_map_rejects_bad_line(tmp_path, case):
    text, message = BAD_CLASS_MAPS[case]
    vocab = corpus.Vocabulary(["<unk>", "a", "b"])
    path = tmp_path / "classes.txt"
    path.write_text(text)
    with pytest.raises(corpus.CorpusError, match=message):
        corpus.ClassMap.load(path, vocab)


def test_read_corpus_skips_long_sentences(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\na b c d\na\n")
    vocab = corpus.build_vocab(["a b c d"], max_size=10)
    sents = corpus.read_corpus(path, vocab, max_length=3)
    assert [len(s) for s in sents] == [2, 1]


def test_read_lines_numbers_nonblank_lines_without_newlines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes("a b\n\n  \t\nc\r\nd é\n".encode("utf-8"))
    assert list(corpus.read_lines(path)) == [(1, "a b"), (4, "c"), (5, "d é")]


@pytest.mark.parametrize(
    "content, line",
    [
        (b"a\n\n\xffb\n", 3),
        (b"a\r\n\r\nb\xe9\r\n", 3),  # Latin-1, CRLF line ends
        (b"a\rb\rc \xc3\n", 3),  # a bare CR ends a line in text mode too
        (b"ok\n" * 5000 + b"\xe2\x82\n", 5001),  # past the first decoded chunk, truncated at EOF
    ],
    ids=["lf", "crlf", "cr", "late-truncated"],
)
def test_read_lines_names_the_first_line_that_is_not_utf8(tmp_path, content, line):
    path = tmp_path / "c.txt"
    path.write_bytes(content)
    with pytest.raises(corpus.CorpusError, match=r"c\.txt:%d: not UTF-8 text$" % line):
        list(corpus.read_lines(path))
