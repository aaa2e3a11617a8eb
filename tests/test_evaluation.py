import math

import numpy as np
import pytest

from trflm import evaluation as ev
from trflm.corpus import LengthPrior, Vocabulary
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

    def __call__(self, tokens):
        return self.table.get(tuple(tokens), self.default)


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
    with pytest.raises(ev.EvalError) as exc:
        ev.perplexity(model, [(1,), (1, 2), (1,), (1, 2)])
    assert "[2, 4]" in str(exc.value)


def test_perplexity_empty_corpus():
    with pytest.raises(ev.EvalError):
        ev.perplexity(_uniform_model(), [])


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


def test_interpolate_identity_and_mean():
    one = FixedScore({("a",): -2.0})
    two = FixedScore({("a",): -4.0})
    assert helpers.interpolate([one], ["a"]) == pytest.approx(-2.0)
    assert helpers.interpolate([one, two], ["a"]) == pytest.approx(-3.0)


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
        (ev.read_refs, "u1\ta b\nu2 a b\n", ":2: expected utt_id<TAB>words"),
    ],
    ids=["nbest-two-fields", "nbest-no-tabs", "nbest-aux-not-numeric", "nbest-aux-nan", "refs-no-tab"],
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
