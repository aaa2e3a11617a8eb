"""Single-item conveniences over the batched library calls, used by the tests."""

import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from trflm import corpus, evaluation, features, neural, noise, oracle, trainer
from trflm.container import read_container, write_container
from trflm.corpus import _xlogx


def phi_forward(sentence, params):
    """Single-sentence potential; returns (value, cache)."""
    vals, cache = neural.phi_forward_batch([tuple(sentence)], params)
    return float(vals[0]), cache


def zero_grads(params):
    """Zero arrays shaped like params, to accumulate phi gradients into."""
    return {k: np.zeros_like(v) for k, v in params.items()}


def phi_backward(cache, scale, grad_acc):
    """Accumulate scale * dphi/dtheta into grad_acc (dict of arrays)."""
    grads = neural.phi_backward_batch(cache, np.array([scale]))
    for k, g in grads.items():
        if grad_acc[k].shape != g.shape:
            raise neural.NeuralError("gradient shape mismatch for %r" % k)
        grad_acc[k] += g
    return grad_acc


def all_sentences(space: oracle.EnumSpace):
    """Every sentence of the space, shortest first."""
    for l in range(1, space.L + 1):
        yield from space.sentences_of_length(l)


def log_weight(model, sentence) -> float:
    """Unnormalized potential lambda^T f + phi of one sentence."""
    return float(model.log_weight_batch([tuple(sentence)])[0])


def adam_step(param: np.ndarray, grad: np.ndarray, lr, state: trainer.AdamState):
    """Single-array step of AdamState.step."""
    holder = {"p": param}
    state.step(holder, {"p": grad}, {"p": lr})
    return holder["p"]


def _placement_keys(sentence, template_set, class_map=None):
    """The (template id, value tuple) key of every in-bounds placement of
    every template in one sentence."""
    seqs = {"word": [int(w) for w in sentence]}
    if class_map is not None:
        seqs["class"] = [int(class_map.word_to_class[w]) for w in sentence]
    for tid, t in enumerate(template_set.templates):
        seq = seqs[t.source]
        for p in range(len(seq) - t.span + 1):
            yield (tid, tuple(seq[p + o] for o in t.offsets))


def counter_feature_keys(sentences, template_set, cutoffs, class_map=None):
    """The reference feature keys: count every template placement of every
    sentence in a Counter of (template id, value tuple) and keep, sorted,
    the keys counted more often than their order's cutoff."""
    if isinstance(cutoffs, str):
        cutoffs = features.parse_cutoffs(cutoffs)
    counts = Counter()
    for s in sentences:
        counts.update(_placement_keys(s, template_set, class_map))
    orders = [t.order for t in template_set.templates]
    return sorted(k for k, c in counts.items() if c > cutoffs[orders[k[0]] - 1])


def feature_keys(index: features.FeatureIndex):
    """The index's keys as (template id, value tuple), in feature-id order."""
    return [(tid, tuple(row)) for tid, a in enumerate(index.key_arrays) for row in a.tolist()]


def _key_ids(index: features.FeatureIndex):
    return {k: i for i, k in enumerate(feature_keys(index))}


def feature_id(index: features.FeatureIndex, tid, values):
    """The feature id of the key (tid, values); KeyError if it is not indexed."""
    return _key_ids(index)[(tid, tuple(values))]


def empirical_expectations(sentences, index: features.FeatureIndex) -> np.ndarray:
    """Mean feature counts per sentence."""
    occurrences = features.extract(sentences, index)
    counts = features.batch_gradient(occurrences, np.ones(len(sentences)), index.n_features)
    return counts / max(1, len(sentences))


def extract_pairs(sentence, index: features.FeatureIndex):
    """The reference per-sentence extraction: count the placement keys of
    the sentence in a Counter and return the indexed ones as (feature id,
    count) pairs, ids increasing."""
    ids = _key_ids(index)
    counts = Counter(_placement_keys(sentence, index.template_set, index.class_map))
    return sorted((ids[k], c) for k, c in counts.items() if k in ids)


def extract_one(sentence, index: features.FeatureIndex):
    """features.extract of a one-sentence batch as (feature id, count) pairs."""
    _, fid, counts = features.extract([tuple(sentence)], index)
    return list(zip(fid.tolist(), counts.tolist()))


def feature_counts_dense(sentence, index: features.FeatureIndex) -> np.ndarray:
    out = np.zeros(index.n_features, dtype=np.float64)
    for fid, c in extract_one(sentence, index):
        out[fid] = c
    return out


def interpolate(scorers, hypotheses) -> list:
    """Equal-weight log-linear interpolation: the mean of the log-scores."""
    return list(evaluation.ScorerSet.equal_weights(scorers).score(hypotheses))


def noise_log_prob(model: noise.NoiseModel, sentence) -> float:
    """log pi_l + autoregressive word-sequence log-probability."""
    p_len = model.prior.prob(len(sentence))
    if p_len <= 0.0:
        raise corpus.CorpusError("length %d has zero prior probability" % len(sentence))
    return math.log(p_len) + float(noise.seq_log_prob_batch(model, [tuple(sentence)])[0])


def class_bigram_log_likelihood(M, right_word_counts):
    """Class-bigram ML log-likelihood of the corpus bigrams.

    M is the class-to-class bigram count matrix. The per-word emission
    term only involves word counts and is constant under reassignment,
    but it is included so the n_classes = V case equals the plain bigram
    log-likelihood.
    """
    l = M.sum(axis=1)
    r = M.sum(axis=0)
    return float(
        _xlogx(M).sum()
        - _xlogx(l).sum()
        - _xlogx(r).sum()
        + _xlogx(right_word_counts).sum()
    )


def clustering_objective(sentences, cls, n_classes):
    """The exchange-clustering objective, recomputed from scratch."""
    M = np.zeros((n_classes, n_classes), dtype=np.float64)
    right_counts = np.zeros(len(cls), dtype=np.int64)
    for s in sentences:
        for u, v in zip(s, s[1:]):
            M[cls[u], cls[v]] += 1
            right_counts[v] += 1
    return class_bigram_log_likelihood(M, right_counts)


def reference_cluster_words(
    sentences, vocab: corpus.Vocabulary, n_classes, max_iters=20, seed=0
) -> corpus.ClassMap:
    """The reference exchange clustering, one candidate class at a time:
    the library's cluster_words before it scored every class at once.

    Exchange clustering maximizing the class-bigram log-likelihood.

    Words start in classes assigned round-robin by frequency rank; each
    sweep tries to move every word to its best class. Accepted moves
    never decrease the objective. Deterministic given the seed.
    """
    V = vocab.size
    if n_classes > V:
        raise corpus.CorpusError("n_classes (%d) exceeds vocabulary size (%d)" % (n_classes, V))
    if n_classes < 1:
        raise corpus.CorpusError("n_classes must be >= 1")
    if not sentences:
        raise corpus.CorpusError("empty corpus")

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
    return corpus.ClassMap(cls, n_classes)


def shuffled_batch(rng, V, lengths):
    """Random sentences of the given lengths over V words, in shuffled order."""
    sents = [tuple(int(w) for w in rng.integers(0, V, size=l)) for l in lengths]
    return [sents[j] for j in rng.permutation(len(sents))]


# The masked reference for the packed recurrence: sentences padded in
# input order, every recurrent step computed over the whole batch, and a
# (T, B, 1) mask blending each row's old state back in past its end.


def _masked_cell(x, h, c, W, U, b):
    d = h.shape[1]
    a = x @ W + h @ U + b
    i = neural._sigmoid(a[:, :d])
    f = neural._sigmoid(a[:, d : 2 * d])
    o = neural._sigmoid(a[:, 2 * d : 3 * d])
    g = np.tanh(a[:, 3 * d :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new, (i, f, o, g)


def masked_lstm_forward(x, mask, W, U, b):
    T, B, d = x.shape
    h = np.zeros((B, d))
    c = np.zeros((B, d))
    hs = np.empty((T, B, d))
    cache = {k: np.empty((T, B, d)) for k in ("i", "f", "o", "g", "c_new", "c_prev", "h_prev")}
    cache.update(x=x, mask=mask, W=W, U=U)
    for t in range(T):
        m = mask[t]
        h_new, c_new, (i, f, o, g) = _masked_cell(x[t], h, c, W, U, b)
        cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t] = i, f, o, g
        cache["c_new"][t] = c_new
        cache["c_prev"][t] = c
        cache["h_prev"][t] = h
        c = m * c_new + (1.0 - m) * c
        h = m * h_new + (1.0 - m) * h
        hs[t] = h
    return hs, cache


def masked_lstm_backward(cache, dhs):
    x, mask = cache["x"], cache["mask"]
    W, U = cache["W"], cache["U"]
    T, B, d = x.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * d)
    dx = np.zeros_like(x)
    dh_next = np.zeros((B, d))
    dc_next = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        m = mask[t]
        dh = dhs[t] + dh_next
        dc = dc_next
        dh_new = m * dh
        dh_prev = (1.0 - m) * dh
        dc_new = m * dc
        dc_prev = (1.0 - m) * dc
        i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        tc = np.tanh(cache["c_new"][t])
        do = dh_new * tc
        dc_new = dc_new + dh_new * o * (1.0 - tc * tc)
        di = dc_new * g
        dg = dc_new * i
        df = dc_new * cache["c_prev"][t]
        dc_prev = dc_prev + dc_new * f
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1,
        )
        dW += x[t].T @ da
        dU += cache["h_prev"][t].T @ da
        db += da.sum(axis=0)
        dx[t] = da @ W.T
        dh_next = dh_prev + da @ U.T
        dc_next = dc_prev
    return dW, dU, db, dx


def _pad(sentences):
    B = len(sentences)
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    T = int(lengths.max())
    ids = np.zeros((T, B), dtype=np.int64)
    mask = np.zeros((T, B, 1))
    for j, s in enumerate(sentences):
        ids[: len(s), j] = s
        mask[: len(s), j, 0] = 1.0
    return ids, mask, lengths


def masked_phi_forward_batch(sentences, params):
    n_layers = neural.n_layers_of(params)
    ids, mask, lengths = _pad(sentences)
    T, B = ids.shape
    e = params["emb"][ids] * mask
    caches = {"fwd": [], "bwd": []}
    x = e
    for layer in range(n_layers):
        pre = "fwd%d_" % layer
        x, c = masked_lstm_forward(x, mask, params[pre + "W"], params[pre + "U"], params[pre + "b"])
        caches["fwd"].append(c)
    hf = x
    x = e[::-1]
    for layer in range(n_layers):
        pre = "bwd%d_" % layer
        x, c = masked_lstm_forward(
            x, mask[::-1], params[pre + "W"], params[pre + "U"], params[pre + "b"]
        )
        caches["bwd"].append(c)
    hb = x[::-1]
    t_idx = np.arange(T)[:, None]
    pair_f = (t_idx + 1 < lengths[None, :]).astype(np.float64)[:, :, None]
    pair_b = ((t_idx >= 1) & (t_idx < lengths[None, :])).astype(np.float64)[:, :, None]
    vals = np.zeros(B)
    if T > 1:
        vals += np.einsum("tbd,tbd->b", hf[:-1] * pair_f[:-1], e[1:])
        vals += np.einsum("tbd,tbd->b", hb[1:] * pair_b[1:], e[:-1])
    cache = dict(ids=ids, mask=mask, e=e, hf=hf, hb=hb, pair_f=pair_f, pair_b=pair_b,
                 caches=caches, V=params["emb"].shape[0], n_layers=n_layers)
    return vals, cache


def masked_phi_backward_batch(cache, weights):
    ids, mask, e = cache["ids"], cache["mask"], cache["e"]
    hf, hb = cache["hf"], cache["hb"]
    pair_f, pair_b = cache["pair_f"], cache["pair_b"]
    T = ids.shape[0]
    w = np.asarray(weights, dtype=np.float64)[None, :, None]
    grads = {}
    de = np.zeros_like(e)
    dhf = np.zeros_like(hf)
    dhb = np.zeros_like(hb)
    if T > 1:
        dhf[:-1] = w * pair_f[:-1] * e[1:]
        de[1:] += w * pair_f[:-1] * hf[:-1]
        dhb[1:] = w * pair_b[1:] * e[:-1]
        de[:-1] += w * pair_b[1:] * hb[1:]
    dx = dhf
    for layer in range(cache["n_layers"] - 1, -1, -1):
        pre = "fwd%d_" % layer
        dW, dU, db, dx = masked_lstm_backward(cache["caches"]["fwd"][layer], dx)
        grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = dW, dU, db
    de += dx
    dx = dhb[::-1]
    for layer in range(cache["n_layers"] - 1, -1, -1):
        pre = "bwd%d_" % layer
        dW, dU, db, dx = masked_lstm_backward(cache["caches"]["bwd"][layer], dx)
        grads[pre + "W"], grads[pre + "U"], grads[pre + "b"] = dW, dU, db
    de += dx[::-1]
    de = de * mask
    demb = np.zeros((cache["V"], e.shape[2]))
    np.add.at(demb, ids.ravel(), de.reshape(-1, e.shape[2]))
    grads["emb"] = demb
    return grads


def _masked_noise_forward(model, sentences):
    ids, mask, _ = _pad(sentences)
    inputs = np.empty_like(ids)
    inputs[0] = model.bos_id
    inputs[1:] = ids[:-1]
    p = model.params
    x = p["emb"][inputs] * mask
    hs, cache = masked_lstm_forward(x, mask, p["W"], p["U"], p["b"])
    return ids, inputs, mask, hs, cache, hs @ p["Wo"] + p["bo"]


def masked_seq_log_prob_batch(model, sentences):
    ids, _, mask, _, _, logits = _masked_noise_forward(model, sentences)
    m = logits.max(axis=-1)
    lse = np.log(np.exp(logits - m[:, :, None]).sum(axis=-1))
    tok = np.take_along_axis(logits, ids[:, :, None], axis=2)[:, :, 0] - m - lse
    return (tok * mask[:, :, 0]).sum(axis=0)


def masked_nll_and_grads(model, sentences):
    B = len(sentences)
    ids, inputs, mask, hs, cache, logits = _masked_noise_forward(model, sentences)
    T = ids.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    tok = np.take_along_axis(logp, ids[:, :, None], axis=2)[:, :, 0]
    nll = -float((tok * mask[:, :, 0]).sum()) / B
    dlogits = np.exp(logp)
    dlogits.reshape(-1, model.V)[np.arange(T * B), ids.ravel()] -= 1.0
    dlogits *= mask / B
    grads = {"Wo": np.einsum("tbd,tbv->dv", hs, dlogits), "bo": dlogits.sum(axis=(0, 1))}
    dW, dU, db, dx = masked_lstm_backward(cache, dlogits @ model.params["Wo"].T)
    grads["W"], grads["U"], grads["b"] = dW, dU, db
    dx = dx * mask
    demb = np.zeros_like(model.params["emb"])
    np.add.at(demb, inputs.ravel(), dx.reshape(-1, dx.shape[2]))
    grads["emb"] = demb
    return nll, grads


def masked_sample(model, count, rng):
    """The sampler stepping every chain at every step, draws in chain order."""
    L = model.prior.max_length
    lengths = rng.choice(np.arange(1, L + 1), size=count, p=model.prior.probs)
    T = int(lengths.max())
    p = model.params
    d = p["emb"].shape[1]
    h = np.zeros((count, d))
    c = np.zeros((count, d))
    tokens = np.zeros((T, count), dtype=np.int64)
    log_p = np.zeros(count)
    prev = np.full(count, model.bos_id, dtype=np.int64)
    rows = np.arange(count)
    for t in range(T):
        h, c, _ = _masked_cell(p["emb"][prev], h, c, p["W"], p["U"], p["b"])
        logp = h @ p["Wo"] + p["bo"]
        logp -= logp.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        cdf = np.cumsum(np.exp(logp), axis=1)
        u = rng.random(count)
        idx = np.minimum(np.count_nonzero(cdf < u[:, None], axis=1), model.V - 1)
        tokens[t] = idx
        log_p += logp[rows, idx] * (t < lengths)
        prev = idx
    return [tuple(row[:l]) for row, l in zip(tokens.T.tolist(), lengths)], log_p


def reference_sample(model: noise.NoiseModel, count, rng):
    """noise.sample as it was before its two-level draw, kept verbatim as
    the reference: a full-row log-softmax and CDF at every step.

    Draw `count` sentences: length from pi, then words autoregressively.
    Returns (sentences, log_p), where log_p[j] is draw j's word-sequence
    log-probability (length-prior factor excluded) read off the same
    log-softmax the draw used, so it agrees with seq_log_prob_batch on
    the draws to rounding. Deterministic given the rng state: lengths
    first, then one uniform per chain per step in fixed chain order. The
    chains are stepped longest first, so only the prefix of chains that
    have not reached their length computes at each step.
    """
    if count <= 0:
        return [], np.zeros(0)
    L = model.prior.max_length
    lengths = rng.choice(np.arange(1, L + 1), size=count, p=model.prior.probs)
    order, n = neural.sort_by_length(lengths)
    T = len(n)
    p = model.params
    d = p["emb"].shape[1]
    h = np.zeros((count, d))
    c = np.zeros((count, d))
    tokens = np.zeros((T, count), dtype=np.int64)
    log_p = np.zeros(count)
    prev = np.full(count, model.bos_id, dtype=np.int64)
    # (count, V) work buffers, the live rows filled in place at every step
    logp_buf = np.empty((count, model.V))
    cdf_buf = np.empty((count, model.V))
    below_buf = np.empty((count, model.V), dtype=bool)
    for t in range(T):
        k = n[t]
        u = rng.random(count)[order[:k]]
        h, c = neural.lstm_cell(p["emb"][prev[:k]] @ p["W"], h[:k], c[:k], p["U"], p["b"])
        logp, cdf, below = logp_buf[:k], cdf_buf[:k], below_buf[:k]
        np.matmul(h, p["Wo"], out=logp)
        logp += p["bo"]
        noise._log_softmax(logp, cdf)
        np.cumsum(np.exp(logp, out=cdf), axis=1, out=cdf)
        np.less(cdf, u[:, None], out=below)
        prev = np.minimum(np.count_nonzero(below, axis=1), model.V - 1)
        tokens[t, :k] = prev
        log_p[:k] += logp[np.arange(k), prev]
    # back to draw order
    sents = [None] * count
    for j, row in zip(order.tolist(), tokens.T.tolist()):
        sents[j] = tuple(row[: lengths[j]])
    out = np.empty(count)
    out[order] = log_p
    return sents, out


def reference_noise_train_step(model: noise.NoiseModel, minibatch, lr):
    """noise.noise_train_step as it was before it returned the minibatch's
    log-probabilities: the same SGD step, returning the model."""
    grads = noise.nll_and_grads(model, minibatch)[1]
    noise.clip_global_norm(grads)
    for k, g in grads.items():
        model.params[k] -= lr * g
    return model


def reference_nll_and_grads(model: noise.NoiseModel, sentences):
    """noise.nll_and_grads as it was with its forward inlined: the log-softmax
    runs on all (N, V) logits at once through a second (N, V) buffer, and
    the softmax is taken into that buffer. Returns (nll, grads, log_p)."""
    if not sentences:
        raise corpus.CorpusError("empty minibatch")
    B = len(sentences)
    ids, n, order = neural.pack(sentences)
    real = neural.real_tokens(n, ids.shape[1])
    inputs = np.empty_like(ids)
    inputs[0] = model.bos_id
    inputs[1:] = ids[:-1]
    p = model.params
    hs, cache = neural.lstm_forward(p["emb"][inputs], n, p["W"], p["U"], p["b"])
    h = hs[real]
    logp = h @ p["Wo"]
    logp += p["bo"]
    scratch = np.empty_like(logp)
    noise._log_softmax(logp, scratch)
    targets = ids[real]
    tok = np.zeros(real.shape)
    tok[real] = logp[np.arange(len(logp)), targets]
    seq = np.empty(len(sentences))
    seq[order] = tok.sum(axis=0)
    rows = np.arange(len(logp))
    nll = -float(logp[rows, targets].sum()) / B

    dlogits = np.exp(logp, out=scratch)  # softmax, to become softmax - onehot(target)
    dlogits[rows, targets] -= 1.0
    dlogits *= 1.0 / B
    grads = {"Wo": h.T @ dlogits, "bo": dlogits.sum(axis=0)}
    dhs = np.zeros(cache["hs"].shape)
    dhs[real] = dlogits @ model.params["Wo"].T
    dW, dU, db, dx = neural.lstm_backward(cache, dhs)
    grads["W"], grads["U"], grads["b"] = dW, dU, db
    demb = np.zeros_like(model.params["emb"])
    np.add.at(demb, inputs[real], dx[real])
    grads["emb"] = demb
    return nll, grads, seq


def whole_step_grad_estimate(model, D, B1, B2, log_p_noise, alpha, nu):
    """The DNCE gradient from one potential_batch call over the whole step,
    as trainer.grad_estimate took it before it went through model.chunks:
    the bitwise reference for a step that fits in one chunk."""
    n_mix = len(D) + len(B1)
    sents = list(D) + list(B1) + list(B2)
    lengths = np.array([len(s) for s in sents], dtype=np.int64)
    potential, occurrences, cache = model.potential_batch(sents)
    p0 = trainer.posterior_c0(potential - model.zeta[lengths - 1], log_p_noise, nu)
    scale = alpha / len(D)
    weights = np.concatenate([scale * (1.0 - p0[:n_mix]), -scale * p0[n_mix:]])
    g_lambda = g_theta = None
    if model.has_discrete:
        g_lambda = features.batch_gradient(occurrences, weights, model.feature_index.n_features)
    if model.has_neural:
        g_theta = neural.phi_backward_batch(cache, weights)
    g_zeta = np.zeros(model.max_length)
    np.subtract.at(g_zeta, lengths - 1, weights)
    return model.named(g_zeta, g_lambda, g_theta)


def reference_dnce_steps(config, train_sentences, dev_sentences, model, noise_model, max_steps):
    """trainer.train's loop in its earlier step order, kept as the reference:
    the gradient reads D's noise log-probabilities from seq_log_prob_batch,
    and the KL step on D comes last. Covers the per-epoch-halving schedule
    without averaging or checkpoints; returns the dev history."""
    assert config.schedule == "per-epoch-halving" and config.average_tail == 0
    rng = np.random.default_rng(config.seed)
    adam = trainer.AdamState()
    params = model.params()
    n = len(train_sentences)
    size = config.batch_size
    factor, history, step = 1.0, [], 0
    while step < max_steps:
        lrs = model.named(config.lr_zeta, config.lr_lambda * factor, config.lr_theta * factor)
        order = rng.permutation(n)
        for b in range(math.ceil(n / size)):
            D = [train_sentences[i] for i in order[b * size : (b + 1) * size]]
            b1, b2 = trainer.minibatch_sizes(config.alpha, config.nu, len(D))
            drawn, log_p_drawn = noise.sample(noise_model, b1 + b2, rng)
            log_p = np.concatenate([noise.seq_log_prob_batch(noise_model, D), log_p_drawn])
            grads = trainer.grad_estimate(
                model, D, drawn[:b1], drawn[b1:], log_p, config.alpha, config.nu
            )
            adam.step(params, grads, lrs)
            reference_noise_train_step(noise_model, D, config.lr_noise)
            step += 1
            if step >= max_steps:
                break
        history.append(trainer.dev_log_likelihood(model, dev_sentences))
        if len(history) % config.halve_every == 0:
            factor *= 0.5
    return history


class FakeBlas:
    """Stands in for the BLAS that neural.overlap reads and sets the thread
    count of: install() puts its two calls in place of neural._blas()'s,
    and each count it is set to is kept in sets."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def put(self, threads):
        self.sets.append(threads)
        self.threads = threads

    def install(self, monkeypatch):
        monkeypatch.setattr(neural, "_blas", lambda: (lambda: self.threads, self.put))


DAMAGES = ["drop", "add", "reshape"]


def damage_each_array(path, damage):
    """For each array of the container at path, rewrite the file with that
    array dropped ("drop"), with an undeclared array beside it ("add") or
    with a trailing axis added ("reshape"), and yield the name of the array
    a refusal must name. The file is restored once all are done."""
    original = Path(path).read_bytes()
    manifest, arrays = read_container(path)
    for name in sorted(arrays):
        edited, bad = dict(arrays), name
        if damage == "drop":
            del edited[name]
        elif damage == "add":
            bad = name + "_undeclared"
            edited[bad] = arrays[name]
        else:
            edited[name] = arrays[name][..., None]
        write_container(path, manifest, edited)
        yield bad
    Path(path).write_bytes(original)


def names_file_and_array(message, path, name) -> bool:
    """Whether an error message starts with the file's path and names the array."""
    rest = message[len(str(path)) :] if message.startswith(str(path)) else ""
    return re.search(r"(?<![\w.])%s(?![\w.])" % re.escape(name), rest) is not None
