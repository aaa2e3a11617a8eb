"""Perplexity, N-best rescoring, equal-weight log-linear interpolation, WER."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, encode, read_lines


class EvalError(ValueError):
    pass


def perplexity(model, sentences) -> float:
    """exp(-sum log p(l, x^l) / total tokens).

    Joint sentence probability with per-token normalization and no end
    symbol, so values are not comparable to conditional-LM perplexities.
    """
    if not sentences:
        raise EvalError("empty corpus")
    logp = model.log_prob_batch(sentences)
    total_tokens = sum(len(s) for s in sentences)
    return math.exp(-float(logp.sum()) / total_tokens)


@dataclass
class NBestList:
    utt_id: str
    hypotheses: list  # (aux_score, token strings)


def _tab_fields(path, n, layout):
    """(line number, fields) for each nonblank line split into its n tab
    fields; a line with fewer raises EvalError naming path:line."""
    for lineno, line in read_lines(path):
        fields = line.split("\t", n - 1)
        if len(fields) < n:
            raise EvalError("%s:%d: expected %s" % (path, lineno, layout))
        yield lineno, fields


def read_nbest(path):
    """Lines "utt_id<TAB>aux_score<TAB>w1 w2 ...", grouped by utt_id in order of first line."""
    lists = {}
    for lineno, (utt, aux, text) in _tab_fields(path, 3, "utt_id<TAB>aux_score<TAB>words"):
        try:
            score = float(aux)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise EvalError("%s:%d: aux score %r is not a finite number" % (path, lineno, aux))
        words = text.split()
        if not words:
            raise EvalError("%s:%d: hypothesis has no words" % (path, lineno))
        lists.setdefault(utt, NBestList(utt, [])).hypotheses.append((score, words))
    return list(lists.values())


def read_refs(path):
    """Lines "utt_id<TAB>w1 w2 ...", keyed by utt_id, which no two lines may share."""
    refs = {}
    for lineno, (utt, text) in _tab_fields(path, 2, "utt_id<TAB>words"):
        if utt in refs:
            raise EvalError("%s:%d: utterance %r has a second reference" % (path, lineno, utt))
        refs[utt] = text.split()
    return refs


@dataclass
class ScorerSet:
    """Hypothesis list -> log-score array functions with per-scorer weights."""

    scorers: list
    weights: list

    def __post_init__(self):
        if len(self.scorers) != len(self.weights):
            raise EvalError("scorer and weight counts differ")
        if not self.scorers:
            raise EvalError("need at least one scorer")

    def score(self, hypotheses) -> np.ndarray:
        total = np.zeros(len(hypotheses))
        for f, w in zip(self.scorers, self.weights):
            scores = np.asarray(f(hypotheses), dtype=np.float64)
            if scores.shape != total.shape:
                raise EvalError(
                    "a scorer gave %d scores for %d hypotheses" % (scores.size, len(hypotheses))
                )
            total += w * scores
        return total

    @classmethod
    def equal_weights(cls, scorers):
        k = len(scorers)
        return cls(list(scorers), [1.0 / k] * k)


def model_scorer(model):
    def score(hypotheses):
        return model.log_prob_batch([encode(" ".join(t), model.vocab) for t in hypotheses])

    return score


def score_nbest(nbest: NBestList, scorers: ScorerSet, lm_weight=1.0):
    """combined = aux + lm_weight * weighted LM scores; sorted descending.

    Ties keep the original hypothesis order (stable sort), so the
    recognizer's own ranking breaks them.
    """
    if not nbest.hypotheses:
        raise EvalError("utterance %r has no hypotheses" % nbest.utt_id)
    aux, hypotheses = zip(*nbest.hypotheses)
    combined = np.array(aux) + lm_weight * scorers.score(list(hypotheses))
    scored = [(float(c), rank, t) for rank, (c, t) in enumerate(zip(combined, hypotheses))]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


def wer(reference, hypothesis):
    """Levenshtein distance with unit costs; returns (errors, ref_len, rate)."""
    if not reference:
        raise EvalError("empty reference")
    n, m = len(reference), len(hypothesis)
    prev = np.arange(m + 1)
    for i in range(1, n + 1):
        cur = np.empty(m + 1, dtype=np.int64)
        cur[0] = i
        for j in range(1, m + 1):
            sub = prev[j - 1] + (reference[i - 1] != hypothesis[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    errors = int(prev[m])
    return errors, n, errors / n


def corpus_wer(pairs):
    """Aggregate error and reference counts before dividing."""
    total_err = 0
    total_ref = 0
    for ref, hyp in pairs:
        e, r, _ = wer(ref, hyp)
        total_err += e
        total_ref += r
    if total_ref == 0:
        raise EvalError("no reference tokens")
    return total_err, total_ref, total_err / total_ref


def rescore_corpus(nbest_lists, scorers: ScorerSet, lm_weight=1.0, refs=None):
    """Pick the best hypothesis per utterance; optionally compute WER.

    Returns (selections, wer_report). selections is a list of
    (utt_id, best_index, combined_score, tokens); wer_report is None
    when refs is None.
    """
    selections = []
    pairs = []
    for nb in nbest_lists:
        try:
            ranked = score_nbest(nb, scorers, lm_weight)
        except CorpusError as exc:
            raise CorpusError("utterance %r: %s" % (nb.utt_id, exc)) from exc
        combined, best_idx, tokens = ranked[0]
        selections.append((nb.utt_id, best_idx, combined, tokens))
        if refs is not None:
            if nb.utt_id not in refs:
                raise EvalError("no reference for utterance %r" % nb.utt_id)
            pairs.append((refs[nb.utt_id], tokens))
    report = corpus_wer(pairs) if refs is not None else None
    return selections, report
