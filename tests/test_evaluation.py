import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import evaluation as ev
from trflm import features as feats
from trflm import model as model_mod
from trflm import neural
from trflm.corpus import ClassMap, CorpusError, LengthPrior, Vocabulary, encode
from trflm.model import TrfModel, zeta_init

import helpers


def _uniform_model(V=4, L=3, pi=None):
    vocab = Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])
    if pi is None:
        pi = np.ones(L) / L
    return TrfModel(vocab, LengthPrior(np.asarray(pi, dtype=float)), zeta_init(V, L))


class FixedScore:
    def __init__(self, table, default=0.0):
        self.table = table
        self.default = default

    def __call__(self, hypotheses):
        return [self.table.get(tuple(tokens), self.default) for tokens in hypotheses]


def test_perplexity_uniform_single_length():
    # pi concentrated on one length: log p = -l log V, so PPL = V
    model = _uniform_model(V=4, L=2, pi=[0.0, 1.0])
    assert ev.perplexity(model, [(1, 2), (3, 0)]) == pytest.approx(4.0)


def test_perplexity_arithmetic():
    class Fake:
        max_length = 10
        prior = LengthPrior(np.ones(10) / 10)

        def log_prob_batch(self, sents):
            return np.array([-10.0])

    fake = Fake()
    fake.prior = LengthPrior(np.ones(10) / 10)
    s = (1, 2, 3, 4, 5)
    assert ev.perplexity(fake, [s]) == pytest.approx(math.exp(2.0))


def test_perplexity_unseen_length_lists_lines():
    model = _uniform_model(V=3, L=2, pi=[1.0, 0.0])
    with pytest.raises(CorpusError, match=r"lengths with zero prior probability: \[2\]"):
        ev.perplexity(model, [(1,), (1, 2), (1,), (1, 2)])


def test_perplexity_empty_corpus():
    with pytest.raises(ev.EvalError):
        ev.perplexity(_uniform_model(), [])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_perplexity_memory_does_not_grow_with_the_corpus(monkeypatch):
    V, L, d = 50, 12, 16
    rng = np.random.default_rng(7)
    vocab = Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])
    small = helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=250))
    large = small + helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=750))
    index = feats.build_feature_index(large, feats.compile_templates("w:2"), "00")
    model = TrfModel(
        vocab, LengthPrior(np.full(L, 1.0 / L)), zeta_init(V, L),
        feature_index=index, lam=rng.normal(size=index.n_features),
        phi_params=neural.init_phi_params(V, d, seed=7),
    )
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", 200 * 16 * d)
    ev.perplexity(model, small)  # warm up lazily allocated state
    peaks = [_traced_peak(lambda: ev.perplexity(model, c)) for c in (small, large)]
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_score_nbest_single_scorer_ranks_by_score():
    nb = ev.NBestList("utt1", [(0.0, ["a"]), (0.0, ["b"]), (0.0, ["c"])])
    scorer = ev.ScorerSet([FixedScore({("a",): -3.0, ("b",): -1.0, ("c",): -2.0})], [1.0])
    ranked = ev.score_nbest(nb, scorer, lm_weight=1.0)
    assert [t[2] for t in ranked] == [["b"], ["c"], ["a"]]


def test_score_nbest_duplicate_scorer_same_ranking():
    table = {("a",): -3.0, ("b",): -1.0}
    nb = ev.NBestList("u", [(0.5, ["a"]), (0.1, ["b"])])
    single = ev.ScorerSet([FixedScore(table)], [1.0])
    double = ev.ScorerSet([FixedScore(table), FixedScore(table)], [0.5, 0.5])
    r1 = ev.score_nbest(nb, single)
    r2 = ev.score_nbest(nb, double)
    assert [t[1] for t in r1] == [t[1] for t in r2]
    assert r1[0][0] == pytest.approx(r2[0][0])


def test_score_nbest_hand_computed():
    table = {("x",): -1.0, ("y",): -2.0, ("z",): -0.5}
    nb = ev.NBestList("u", [(2.0, ["x"]), (2.4, ["y"]), (1.2, ["z"])])
    ranked = ev.score_nbest(nb, ev.ScorerSet([FixedScore(table)], [1.0]), lm_weight=2.0)
    # combined: x: 0.0, y: -1.6, z: 0.2 -> z best
    assert ranked[0][2] == ["z"]
    assert ranked[0][0] == pytest.approx(0.2)


def test_score_nbest_stable_ties():
    nb = ev.NBestList("u", [(1.0, ["a"]), (1.0, ["b"])])
    ranked = ev.score_nbest(nb, ev.ScorerSet([FixedScore({}, default=0.0)], [1.0]))
    assert [t[2] for t in ranked] == [["a"], ["b"]]


def test_score_nbest_shift_invariant():
    table = {("a",): -3.0, ("b",): -1.0, ("c",): -2.0}
    nb1 = ev.NBestList("u", [(0.3, ["a"]), (0.7, ["b"]), (0.1, ["c"])])
    nb2 = ev.NBestList("u", [(0.3 + 5, ["a"]), (0.7 + 5, ["b"]), (0.1 + 5, ["c"])])
    scorer = ev.ScorerSet([FixedScore(table)], [1.0])
    r1 = ev.score_nbest(nb1, scorer)
    r2 = ev.score_nbest(nb2, scorer)
    assert [t[1] for t in r1] == [t[1] for t in r2]


def test_score_nbest_empty_hypotheses():
    with pytest.raises(ev.EvalError):
        ev.score_nbest(ev.NBestList("u", []), ev.ScorerSet([FixedScore({})], [1.0]))


@pytest.mark.parametrize("result", [[-2.0], -2.0, [-2.0] * 4], ids=["one", "scalar", "four"])
def test_scorer_with_wrong_score_count_is_an_error(result):
    nb = ev.NBestList("u", [(0.0, ["a"]), (1.0, ["b"]), (2.0, ["c"])])
    scorers = ev.ScorerSet([lambda hypotheses: result], [1.0])
    with pytest.raises(ev.EvalError, match="scores for 3 hypotheses"):
        ev.score_nbest(nb, scorers)


def test_interpolate_identity_and_mean():
    one = FixedScore({("a",): -2.0})
    two = FixedScore({("a",): -4.0})
    assert helpers.interpolate([one], [["a"]]) == pytest.approx([-2.0])
    assert helpers.interpolate([one, two], [["a"]]) == pytest.approx([-3.0])


def test_interpolate_self_preserves_ranking():
    table = {("a",): -3.0, ("b",): -1.0, ("c",): -7.0}
    nb = ev.NBestList("u", [(0.2, ["a"]), (0.9, ["b"]), (0.4, ["c"])])
    single = ev.ScorerSet([FixedScore(table)], [1.0])
    doubled = ev.ScorerSet.equal_weights([FixedScore(table), FixedScore(table)])
    assert [t[1] for t in ev.score_nbest(nb, single)] == [
        t[1] for t in ev.score_nbest(nb, doubled)
    ]


def test_wer_identical():
    errors, n, rate = ev.wer(["a", "b", "c"], ["a", "b", "c"])
    assert (errors, n, rate) == (0, 3, 0.0)


def test_wer_deletion():
    errors, n, rate = ev.wer(["a", "b", "c"], ["a", "c"])
    assert (errors, n) == (1, 3)
    assert rate == pytest.approx(1 / 3)


def test_wer_substitution_plus_insertion():
    errors, n, rate = ev.wer(["a"], ["b", "c"])
    assert (errors, n) == (2, 1)
    assert rate == pytest.approx(2.0)


def test_wer_distance_symmetric():
    x, y = ["a", "b", "c", "d"], ["b", "c", "e"]
    assert ev.wer(x, y)[0] == ev.wer(y, x)[0]


def test_wer_empty_reference():
    with pytest.raises(ev.EvalError):
        ev.wer([], ["a"])


def test_corpus_wer_aggregates_counts():
    pairs = [(["a", "b"], ["a", "b"]), (["a"], ["b"])]
    errors, ref_len, rate = ev.corpus_wer(pairs)
    # 1 error over 3 reference tokens, not the mean of per-utterance rates
    assert (errors, ref_len) == (1, 3)
    assert rate == pytest.approx(1 / 3)


def test_nbest_file_roundtrip(tmp_path):
    nbest_path = tmp_path / "nbest.txt"
    nbest_path.write_text(
        "utt1\t-1.5\ta b c\n"
        "utt1\t-2.0\ta c\n"
        "utt2\t0.0\tz\n"
    )
    lists = ev.read_nbest(nbest_path)
    assert len(lists) == 2
    assert lists[0].utt_id == "utt1"
    assert lists[0].hypotheses[1] == (-2.0, ["a", "c"])
    refs_path = tmp_path / "refs.txt"
    refs_path.write_text("utt1\ta b c\nutt2\ty\n")
    refs = ev.read_refs(refs_path)
    assert refs["utt2"] == ["y"]


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (ev.read_nbest, "u1\t0.0\ta b\nu1\t0.5\n", ":2: expected utt_id<TAB>aux_score<TAB>words"),
        (ev.read_nbest, "u1\t0.0\ta b\n\nu1 0.5 a\n", ":3: expected"),
        (ev.read_nbest, "u1\tabc\ta b\n", ":1: aux score 'abc' is not a finite number"),
        (ev.read_nbest, "u1\tnan\ta b\n", ":1: aux score 'nan'"),
        (ev.read_nbest, "u1\t0.0\ta b\nu1\t0.5\t\n", ":2: hypothesis has no words"),
        (ev.read_nbest, "u1\t0.0\t \t \n", ":1: hypothesis has no words"),
        (ev.read_refs, "u1\ta b\nu2 a b\n", ":2: expected utt_id<TAB>words"),
        (ev.read_refs, "u1\ta b\nu2\tc\nu1\td\n", ":3: utterance 'u1' has a second reference"),
    ],
    ids=[
        "nbest-two-fields", "nbest-no-tabs", "nbest-aux-not-numeric", "nbest-aux-nan",
        "nbest-empty-words", "nbest-blank-words", "refs-no-tab", "refs-repeated-id",
    ],
)
def test_bad_input_line_names_path_and_line(tmp_path, reader, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ev.EvalError) as exc:
        reader(path)
    assert str(exc.value).startswith(str(path) + message)


def test_rescore_corpus_with_refs(tmp_path):
    table = {("a", "b"): -1.0, ("a",): -5.0, ("z",): -1.0, ("y",): -3.0}
    lists = [
        ev.NBestList("u1", [(0.0, ["a"]), (0.0, ["a", "b"])]),
        ev.NBestList("u2", [(0.0, ["z"]), (0.0, ["y"])]),
    ]
    refs = {"u1": ["a", "b"], "u2": ["y"]}
    scorers = ev.ScorerSet([FixedScore(table)], [1.0])
    selections, report = ev.rescore_corpus(lists, scorers, refs=refs)
    assert [s[1] for s in selections] == [1, 0]  # picked hypotheses
    errors, ref_len, rate = report
    assert (errors, ref_len) == (1, 3)


def _line_ok(line):
    fields = line.split("\t", 2)
    if len(fields) < 3:
        return False
    try:
        aux = float(fields[1])
    except ValueError:
        return False
    return math.isfinite(aux) and bool(fields[2].split())


_AUX = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "abc", "", " 1.5 ", "0x1p3"]),
    st.text(alphabet="0123456789.-+e", max_size=6),
)
_NBEST_LINE = st.one_of(
    st.tuples(st.sampled_from(["u1", "u2", ""]), _AUX, st.text(alphabet="ab \t", max_size=8)).map(
        "\t".join
    ),
    st.text(alphabet="ab01.e \t", max_size=12),
)


@given(st.lists(_NBEST_LINE, max_size=8))
@settings(max_examples=300, deadline=None)
def test_read_nbest_fuzz_valid_lists_or_error_at_first_bad_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nbest.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        numbered = [(n, line) for n, line in enumerate(lines, 1) if line.strip()]
        first_bad = next((n for n, line in numbered if not _line_ok(line)), None)
        try:
            lists = ev.read_nbest(path)
        except ev.EvalError as exc:
            m = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
            assert m is not None, str(exc)
            assert int(m.group(1)) == first_bad
            return
    assert first_bad is None
    hyps = [h for nb in lists for h in nb.hypotheses]
    assert len(hyps) == len(numbered)
    assert all(words and math.isfinite(aux) for aux, words in hyps)


def _paper_shaped_model(seed, V=14, L=8, d=4, zero_prior_lengths=()):
    """A mixed model with w+c+ws+cs:4 templates over a class map, random
    weights, a BiLSTM potential of width d and a random zeta_l above a bound
    on log Z_l."""
    rng = np.random.default_rng(seed)
    corpus = [tuple(rng.integers(0, V, size=l)) for l in rng.integers(1, L + 1, size=80)]
    class_map = ClassMap(np.arange(V) % 5, 5)
    tset = feats.compile_templates("w+c+ws+cs:4", class_map_present=True)
    index = feats.build_feature_index(corpus, tset, "0000", class_map=class_map)
    pi = rng.random(L) + 0.1
    pi[[l - 1 for l in zero_prior_lengths]] = 0.0
    phi = {
        k: rng.uniform(-0.4, 0.4, v.shape)
        for k, v in neural.init_phi_params(V, d, seed=seed).items()
    }
    zeta = np.abs(rng.normal(size=L))
    lam = rng.normal(scale=0.5, size=index.n_features)
    # log Z_l <= l log V + the largest potential: each template's at most l placements add
    # at most max(lam, 0), and each of phi's 2(l - 1) terms h . e, with |h| < 1, at most
    # the largest row sum of |emb|
    l = np.arange(1, L + 1)
    zeta += l * (math.log(V) + len(tset.templates) * max(lam.max(), 0.0))
    zeta += 2 * (l - 1) * np.abs(phi["emb"]).sum(axis=1).max()
    return TrfModel(
        Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)]),
        LengthPrior(pi / pi.sum()),
        zeta,
        feature_index=index,
        lam=lam,
        phi_params=phi,
        class_map=class_map,
        template_spec="w+c+ws+cs:4",
    )


def _random_nbest(vocab, seed, n_lists=6, L=8):
    rng = np.random.default_rng(seed)
    words = vocab.words[1:] + ["oov"]
    lists = []
    for u in range(n_lists):
        hyps = [
            (float(rng.normal(0.0, 3.0)), [str(w) for w in rng.choice(words, size=l)])
            for l in rng.integers(1, L + 1, size=int(rng.integers(1, 9)))
        ]
        lists.append(ev.NBestList("u%d" % u, hyps))
    return lists


def test_batched_score_nbest_equals_per_hypothesis_log_prob():
    # A one-sentence BiLSTM pass multiplies through BLAS GEMV and a batched
    # one through GEMM, so the two may differ in the last bits: they are
    # equal here at d=4, and differ by up to 1.4e-14 in a score at d=200
    # with OpenBLAS. Hence the 1e-12 bound and not equality.
    model = _paper_shaped_model(3)
    scorers = ev.ScorerSet.equal_weights([ev.model_scorer(model)])
    lists = _random_nbest(model.vocab, 4)
    selections, _ = ev.rescore_corpus(lists, scorers, lm_weight=1.7)
    for nb, (utt, best, best_score, tokens) in zip(lists, selections):
        ranked = ev.score_nbest(nb, scorers, lm_weight=1.7)
        reference = [
            aux + 1.7 * model.log_prob(encode(" ".join(t), model.vocab))
            for aux, t in nb.hypotheses
        ]
        combined = dict((rank, c) for c, rank, _ in ranked)
        np.testing.assert_allclose(
            [combined[r] for r in range(len(reference))], reference, rtol=0, atol=1e-12
        )
        pick = min(range(len(reference)), key=lambda r: (-reference[r], r))
        assert (utt, best, tokens) == (nb.utt_id, pick, nb.hypotheses[pick][1])
        assert best_score == pytest.approx(reference[pick], rel=0, abs=1e-12)


def test_two_model_equal_weights_is_hand_computed_mean():
    m1, m2 = _paper_shaped_model(5), _paper_shaped_model(6)
    scorers = ev.ScorerSet.equal_weights([ev.model_scorer(m1), ev.model_scorer(m2)])
    for nb in _random_nbest(m1.vocab, 7):
        sents = [encode(" ".join(t), m1.vocab) for _, t in nb.hypotheses]
        mean = (m1.log_prob_batch(sents) + m2.log_prob_batch(sents)) / 2
        combined = [aux + 0.5 * lp for (aux, _), lp in zip(nb.hypotheses, mean)]
        ranked = ev.score_nbest(nb, scorers, lm_weight=0.5)
        # halving is exact, so 0.5 * a + 0.5 * b == (a + b) / 2 bit for bit
        assert sorted((-c, r) for c, r, _ in ranked) == sorted(
            (-c, r) for r, c in enumerate(combined)
        )
        assert ranked[0][1] == min(range(len(combined)), key=lambda r: (-combined[r], r))


def test_one_log_prob_batch_call_per_list_per_model(monkeypatch):
    m1, m2 = _paper_shaped_model(8), _paper_shaped_model(9)
    calls = []
    batch = TrfModel.log_prob_batch

    def counted(self, sentences):
        calls.append((id(self), len(sentences)))
        return batch(self, sentences)

    def per_hypothesis(self, sentence):
        raise AssertionError("rescoring scored a single hypothesis")

    monkeypatch.setattr(TrfModel, "log_prob_batch", counted)
    monkeypatch.setattr(TrfModel, "log_prob", per_hypothesis)
    lists = _random_nbest(m1.vocab, 10, n_lists=5)
    scorers = ev.ScorerSet.equal_weights([ev.model_scorer(m1), ev.model_scorer(m2)])
    ev.rescore_corpus(lists, scorers)
    assert calls == [(id(m), len(nb.hypotheses)) for nb in lists for m in (m1, m2)]


@pytest.mark.parametrize(
    "length, message",
    [(3, "lengths with zero prior probability: [3]"), (9, "lengths outside 1..8: [9]")],
    ids=["zero-prior", "too-long"],
)
def test_rescore_length_error_names_utterance_and_lengths(length, message):
    model = _paper_shaped_model(11, zero_prior_lengths=(3,))
    lists = [
        ev.NBestList("ok", [(0.0, ["w1", "w2"])]),
        ev.NBestList("bad", [(0.0, ["w1"]), (0.0, ["w2"] * length), (0.0, ["w1"] * 2)]),
    ]
    scorers = ev.ScorerSet.equal_weights([ev.model_scorer(model)])
    with pytest.raises(CorpusError) as exc:
        ev.rescore_corpus(lists, scorers)
    assert str(exc.value) == "utterance 'bad': " + message
    assert isinstance(exc.value.__cause__, CorpusError)
