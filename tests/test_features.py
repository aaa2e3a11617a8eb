import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import features as feats
from trflm import corpus as corpus_mod
from trflm.corpus import ClassMap

import helpers


def test_compile_word_templates_order_3():
    tset = feats.compile_templates("w", max_order=3)
    assert len(tset.templates) == 3
    assert [t.offsets for t in tset.templates] == [(0,), (0, 1), (0, 1, 2)]


def test_compile_w_plus_c_order_5():
    tset = feats.compile_templates("w+c", class_map_present=True, max_order=5)
    assert len(tset.templates) == 10


def test_compile_full_spec_counts():
    tset = feats.compile_templates("w+c+ws+cs:5", class_map_present=True)
    contiguous = [t for t in tset.templates if t.offsets == tuple(range(len(t.offsets)))]
    skips = [t for t in tset.templates if t not in contiguous]
    assert len(contiguous) == 10
    assert len(skips) == 10
    # skip bigrams span gaps 1..3, skip trigrams gaps 1..2, per source
    word_skips = [t.offsets for t in skips if t.source == "word"]
    assert word_skips == [(0, 2), (0, 3), (0, 4), (0, 1, 3), (0, 1, 4)]


def test_compile_class_features_require_class_map():
    with pytest.raises(feats.FeatureError):
        feats.compile_templates("w+c", class_map_present=False)
    with pytest.raises(feats.FeatureError):
        feats.compile_templates("cs", class_map_present=False)


@pytest.mark.parametrize(
    "source, offsets, message",
    [
        ("ward", (0,), "template source 'ward' is not word or class"),
        ("word", (), r"template offsets \(\) are not ints that strictly increase from 0"),
        ("word", (1, 2), r"offsets \(1, 2\)"),
        ("class", (0, 2, 2), r"offsets \(0, 2, 2\)"),
        ("word", (0, 1.0), r"offsets \(0, 1.0\)"),
        ("word", (False, 1), r"offsets \(False, 1\)"),
    ],
    ids=["source-ward", "no-offsets", "offsets-from-1", "offsets-repeated", "offset-a-float",
         "offset-a-bool"],
)
def test_template_refuses_a_bad_source_or_offsets(source, offsets, message):
    with pytest.raises(feats.FeatureError, match=message):
        feats.Template(source, offsets)


def test_parse_cutoffs():
    assert feats.parse_cutoffs("00225") == [0, 0, 2, 2, 5]
    with pytest.raises(feats.FeatureError):
        feats.parse_cutoffs("0a1")


def test_build_index_keeps_frequent_bigram():
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    corpus = [(1, 2), (1, 2)]
    index = feats.build_feature_index(corpus, tset, [0, 0])
    assert index.n_features == 1
    assert helpers.feature_keys(index) == [(0, (1, 2))]


def test_build_index_cutoff_strictly_greater():
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    corpus = [(1, 2), (1, 2)]
    # count 2 is not > 2, so the key is dropped
    index = feats.build_feature_index(corpus, tset, [0, 2])
    assert index.n_features == 0


@pytest.mark.parametrize("cutoffs", ["0009", [0, 0, 9]])
def test_build_index_refuses_extra_cutoffs(cutoffs):
    # w:2 has two orders; digits past them would be ignored
    tset = feats.compile_templates("w:2")
    with pytest.raises(feats.FeatureError, match="need 2 cutoffs, got %d" % len(cutoffs)):
        feats.build_feature_index([(1, 2), (1, 2)], tset, cutoffs)


def test_build_index_empty_templates():
    index = feats.build_feature_index([(1, 2)], feats.TemplateSet([], 1), [0])
    assert index.n_features == 0


_FAMILIES = ["w", "c", "ws", "cs"]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_build_index_equals_counter_reference(data):
    V = data.draw(st.integers(1, 6))
    n_classes = data.draw(st.integers(1, 3))
    classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=V, max_size=V))
    class_map = ClassMap(np.array(classes, dtype=np.int64), n_classes)
    # lengths 1..7 straddle every span: contiguous up to 4, skip grams up to 5
    sentence = st.lists(st.integers(0, V - 1), min_size=1, max_size=7).map(tuple)
    corpus = data.draw(st.lists(sentence, max_size=25))
    parts = data.draw(st.lists(st.sampled_from(_FAMILIES), min_size=1, max_size=4, unique=True))
    order = data.draw(st.integers(1, 4))
    cutoffs = "".join(data.draw(st.lists(st.sampled_from("0123"), min_size=order, max_size=order)))
    tset = feats.compile_templates("%s:%d" % ("+".join(parts), order), class_map_present=True)
    if order < 3 and {"ws", "cs"} & set(parts):
        with pytest.raises(feats.FeatureError, match="need 3 cutoffs"):
            feats.build_feature_index(corpus, tset, cutoffs, class_map=class_map)
        return
    index = feats.build_feature_index(corpus, tset, cutoffs, class_map=class_map)
    want = helpers.counter_feature_keys(corpus, tset, cutoffs, class_map)
    assert helpers.feature_keys(index) == want


def test_build_index_equals_counter_reference_on_bundled_corpus():
    path = Path(__file__).resolve().parent.parent / "data" / "train.txt"
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    vocab = corpus_mod.build_vocab(lines, 10000)
    sents = corpus_mod.read_corpus(path, vocab, max_length=60)
    class_map = ClassMap(np.arange(vocab.size) % 200, 200)
    tset = feats.compile_templates("w+c+ws+cs:4", class_map_present=True)
    index = feats.build_feature_index(sents, tset, "0022", class_map=class_map)
    assert index.n_features > 100000
    want = helpers.counter_feature_keys(sents, tset, "0022", class_map)
    assert helpers.feature_keys(index) == want


def test_extract_bigrams():
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    index = feats.build_feature_index([(1, 2), (2, 1)], tset, [0, 0])
    keys = helpers.feature_keys(index)
    got = {keys[fid]: c for fid, c in helpers.extract_one((1, 2, 1), index)}
    assert got == {(0, (1, 2)): 1, (0, (2, 1)): 1}


def test_extract_short_sentence_no_placements():
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    index = feats.build_feature_index([(1, 2)], tset, [0, 0])
    assert helpers.extract_one((1,), index) == []


def test_extract_unigram_counts():
    tset = feats.TemplateSet([feats.Template("word", (0,))], 1)
    index = feats.build_feature_index([(1,)], tset, [0])
    assert helpers.extract_one((1, 1, 1), index) == [(0, 3)]


def test_extract_class_features():
    cmap = ClassMap(np.array([0, 1, 1]), 2)
    tset = feats.TemplateSet([feats.Template("class", (0, 1))], 2)
    index = feats.build_feature_index([(1, 2), (0, 1)], tset, [0, 0], class_map=cmap)
    keys = helpers.feature_keys(index)
    got = {keys[fid]: c for fid, c in helpers.extract_one((1, 2), index)}
    assert got == {(0, (1, 1)): 1}


def test_contiguous_total_count_invariant():
    rng = np.random.default_rng(0)
    tset = feats.compile_templates("w:3")
    corpus = [tuple(rng.integers(0, 4, size=rng.integers(1, 8))) for _ in range(30)]
    index = feats.build_feature_index(corpus, tset, "000")
    keys = helpers.feature_keys(index)
    for s in corpus:
        per_template = {}
        for fid, c in helpers.extract_one(s, index):
            tid = keys[fid][0]
            per_template[tid] = per_template.get(tid, 0) + c
        for tid, t in enumerate(tset.templates):
            expected = max(0, len(s) - t.order + 1)
            assert per_template.get(tid, 0) == expected


def test_linear_potential_zero_lambda():
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index([(1, 2)], tset, "00")
    assert feats.linear_potential((1, 2), index, np.zeros(index.n_features)) == 0.0


def test_linear_potential_simple_count():
    tset = feats.TemplateSet([feats.Template("word", (0,))], 1)
    index = feats.build_feature_index([(1,)], tset, [0])
    lam = np.array([0.5])
    assert feats.linear_potential((1, 1), index, lam) == pytest.approx(1.0)


def test_linear_potential_matches_dense_dot():
    rng = np.random.default_rng(3)
    tset = feats.compile_templates("w:3")
    corpus = [tuple(rng.integers(0, 5, size=rng.integers(1, 7))) for _ in range(40)]
    index = feats.build_feature_index(corpus, tset, "000")
    lam = rng.normal(size=index.n_features)
    for s in corpus[:10]:
        dense = helpers.feature_counts_dense(s, index)
        assert feats.linear_potential(s, index, lam) == pytest.approx(float(dense @ lam))


def test_linear_potential_dimension_mismatch():
    tset = feats.compile_templates("w:2")
    index = feats.build_feature_index([(1, 2)], tset, "00")
    with pytest.raises(feats.FeatureError):
        feats.linear_potential((1, 2), index, np.zeros(index.n_features + 1))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_linear_potential_linearity(seed):
    rng = np.random.default_rng(seed)
    tset = feats.compile_templates("w:2")
    corpus = [tuple(rng.integers(0, 4, size=rng.integers(1, 6))) for _ in range(10)]
    index = feats.build_feature_index(corpus, tset, "00")
    if index.n_features == 0:
        return
    l1 = rng.normal(size=index.n_features)
    l2 = rng.normal(size=index.n_features)
    s = corpus[0]
    assert feats.linear_potential(s, index, l1 + l2) == pytest.approx(
        feats.linear_potential(s, index, l1) + feats.linear_potential(s, index, l2)
    )


# sha256 over each key array's shape and int64 bytes, recorded before the
# index was counted one template at a time
KEY_DIGESTS = {
    "w:2": "a578344ff9b9fb499fbe3586151c009fc4da822e0cfc7e4cca4fb7a74a290b84",
    "w+c+ws+cs:4": "be8fc19a7364376f2b969cd17cc981117ecabcc55e4aa68782dd17cf16525383",
}


@pytest.mark.parametrize("spec, cutoffs", [("w:2", "02"), ("w+c+ws+cs:4", "0022")])
def test_build_index_key_arrays_golden_on_bundled_corpus(spec, cutoffs):
    root = Path(__file__).resolve().parent.parent
    with open(root / "data" / "train.txt", encoding="utf-8") as fh:
        vocab = corpus_mod.build_vocab(fh.readlines(), 2000)
    sents = corpus_mod.read_corpus(root / "data" / "train.txt", vocab, max_length=60)
    class_map = ClassMap.load(root / "perfbench" / "classes200.txt", vocab)
    tset = feats.compile_templates(spec, class_map_present=True)
    index = feats.build_feature_index(sents, tset, cutoffs, class_map=class_map)
    digest = hashlib.sha256()
    for a in index.key_arrays:
        assert a.dtype == np.int64 and a.flags.c_contiguous
        digest.update(str(a.shape).encode())
        digest.update(a.tobytes())
    assert digest.hexdigest() == KEY_DIGESTS[spec]


def test_extract_independent_of_insertion_history():
    tset = feats.compile_templates("w:2")
    corpus_a = [(1, 2), (3, 1), (2, 3)]
    index_a = feats.build_feature_index(corpus_a, tset, "00")
    index_b = feats.build_feature_index(list(reversed(corpus_a)), tset, "00")
    assert helpers.feature_keys(index_a) == helpers.feature_keys(index_b)
    for s in corpus_a:
        assert helpers.extract_one(s, index_a) == helpers.extract_one(s, index_b)


def test_extract_batch_equals_per_sentence_extract_on_bundled_sentences():
    path = Path(__file__).resolve().parent.parent / "data" / "train.txt"
    with open(path, encoding="utf-8") as fh:
        lines = [next(fh) for _ in range(400)]
    vocab = corpus_mod.build_vocab(lines, 500)
    sents = [corpus_mod.encode(line, vocab) for line in lines]
    class_map = ClassMap(np.arange(vocab.size) % 17, 17)
    tset = feats.compile_templates("w+c+ws+cs:3", class_map_present=True)
    index = feats.build_feature_index(sents[:300], tset, "001", class_map=class_map)
    batch = sents[250:] + [(1,), (2, 3)]  # half unseen, and shorter than most spans
    row, fid, counts = feats.extract(batch, index)
    assert len(row) > 1000
    for j, s in enumerate(batch):
        on_row = row == j
        got = list(zip(fid[on_row].tolist(), counts[on_row].tolist()))
        assert got == helpers.extract_pairs(s, index)
    lam = np.random.default_rng(0).normal(size=index.n_features)
    potential = feats.batch_potential((row, fid, counts), lam, len(batch))
    assert potential.tolist() == [feats.linear_potential(s, index, lam) for s in batch]
    weights = np.random.default_rng(1).normal(size=len(batch))
    want = np.zeros(index.n_features)
    for j, s in enumerate(batch):
        for f, c in helpers.extract_pairs(s, index):
            want[f] += weights[j] * c
    assert feats.batch_gradient((row, fid, counts), weights, index.n_features).tolist() == want.tolist()


def test_extract_batch_empty():
    tset = feats.TemplateSet([feats.Template("word", (0, 1))], 2)
    index = feats.build_feature_index([(1, 2)], tset, [0, 0])
    row, fid, counts = feats.extract([], index)
    assert len(row) == len(fid) == len(counts) == 0
    assert feats.batch_potential((row, fid, counts), np.ones(1), 0).shape == (0,)


def _reference_extract(batch, index):
    """extract's (row, fid, count) arrays, from the per-sentence reference."""
    pairs = [(j, f, c) for j, s in enumerate(batch) for f, c in helpers.extract_pairs(s, index)]
    return [list(col) for col in zip(*pairs)] or [[], [], []]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_extract_equals_per_sentence_reference(data):
    V = data.draw(st.integers(1, 6))
    extra = 3  # batch word ids above every key value
    class_map = None
    families = ["w", "ws"]
    if data.draw(st.booleans()):
        n_classes = data.draw(st.integers(1, 3))
        classes = data.draw(
            st.lists(st.integers(0, n_classes - 1), min_size=V + extra, max_size=V + extra)
        )
        class_map = ClassMap(np.array(classes, dtype=np.int64), n_classes)
        families += ["c", "cs"]
    parts = data.draw(st.lists(st.sampled_from(families), min_size=1, max_size=4, unique=True))
    order = data.draw(st.integers(1, 4))
    if {"ws", "cs"} & set(parts):
        order = max(order, 3)
    cutoffs = "".join(data.draw(st.lists(st.sampled_from("0123"), min_size=order, max_size=order)))
    tset = feats.compile_templates(
        "%s:%d" % ("+".join(parts), order), class_map_present=class_map is not None
    )
    # lengths 1..7 straddle every span: contiguous up to 4, skip grams up to 5
    sentence = st.lists(st.integers(0, V - 1), min_size=1, max_size=7).map(tuple)
    corpus = data.draw(st.lists(sentence, max_size=25))
    index = feats.build_feature_index(corpus, tset, cutoffs, class_map=class_map)
    wide = st.lists(st.integers(0, V + extra - 1), min_size=1, max_size=7).map(tuple)
    batch = data.draw(
        st.lists(wide, max_size=8).flatmap(lambda b: st.permutations(corpus[:4] + b))
    )
    got = feats.extract(batch, index)
    assert all(a.dtype == np.int64 for a in got)
    assert [a.tolist() for a in got] == _reference_extract(batch, index)


def test_extract_with_a_multi_level_index():
    # word ids up to 2**40: the 4-gram template's code space, 2**160, folds
    # into one level per column
    rng = np.random.default_rng(5)
    pool = np.array([0, 3, 2**20, 2**39 + 1, 2**40 - 1, 2**40])
    corpus = [
        tuple(int(w) for w in rng.choice(pool[:-1], size=rng.integers(1, 7))) for _ in range(40)
    ]
    tset = feats.compile_templates("w:4")
    index = feats.build_feature_index(corpus, tset, "0000")
    assert index.n_features > 100
    radices, tables, _ = index.folds[3]
    assert math.prod(radices) > 2**62
    assert len(tables) == 4
    assert helpers.feature_keys(index) == helpers.counter_feature_keys(corpus, tset, "0000")
    batch = corpus[:10] + [tuple(int(w) for w in rng.choice(pool, size=6)) for _ in range(30)]
    got = feats.extract(batch, index)
    assert [a.tolist() for a in got] == _reference_extract(batch, index)
