import math
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trflm import corpus as corpus_mod
from trflm import features as feats
from trflm import model as model_mod
from trflm import neural, noise, oracle, trainer
from trflm.container import ContainerError, read_container, write_container
from trflm.corpus import ClassMap, CorpusError, LengthPrior, Vocabulary
from trflm.model import (
    ModelError,
    TrfModel,
    load_noise_model,
    save_noise_model,
    zeta_init,
)

import helpers


def _vocab(V):
    return Vocabulary(["<unk>"] + ["w%d" % i for i in range(1, V)])


def _mixed_model(V=3, L=3, d=2, seed=0, scale=0.3, n_classes=None):
    """A w:2 model; with n_classes, a w+c:2 model whose class map is word id
    modulo n_classes."""
    rng = np.random.default_rng(seed)
    pi = rng.random(L) + 0.2
    prior = LengthPrior(pi / pi.sum())
    space = oracle.EnumSpace(V, L)
    class_map = None if n_classes is None else ClassMap(np.arange(V) % n_classes, n_classes)
    spec = "w:2" if class_map is None else "w+c:2"
    tset = feats.compile_templates(spec, class_map_present=class_map is not None)
    sentences = list(helpers.all_sentences(space))
    index = feats.build_feature_index(sentences, tset, "00", class_map=class_map)
    lam = rng.uniform(-scale, scale, index.n_features)
    phi_params = {
        k: rng.uniform(-scale, scale, v.shape)
        for k, v in neural.init_phi_params(V, d, seed=seed).items()
    }
    return TrfModel(
        _vocab(V), prior, zeta_init(V, L),
        feature_index=index, lam=lam, phi_params=phi_params, class_map=class_map,
        template_spec=spec,
    )


def test_zeta_init_values():
    assert np.allclose(zeta_init(1, 4), 0.0)
    assert np.allclose(zeta_init(10, 3), [math.log(10), 2 * math.log(10), 3 * math.log(10)])


def test_zeta_init_uniform_model_normalizes():
    V, L = 3, 3
    prior = LengthPrior(np.array([0.2, 0.3, 0.5]))
    model = TrfModel(_vocab(V), prior, zeta_init(V, L))
    space = oracle.EnumSpace(V, L)
    for l in range(1, L + 1):
        sents = list(space.sentences_of_length(l))
        total = sum(math.exp(helpers.log_weight(model, s) - model.zeta[l - 1]) for s in sents)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_log_weight_zero_model():
    model = TrfModel(_vocab(2), LengthPrior(np.array([1.0])), zeta_init(2, 1))
    assert helpers.log_weight(model, (1,)) == 0.0


def test_log_weight_discrete_only_equals_linear_potential():
    m = _mixed_model(seed=1)
    discrete = TrfModel(
        m.vocab, m.prior, m.zeta, feature_index=m.feature_index, lam=m.lam
    )
    s = (1, 2, 0)
    assert helpers.log_weight(discrete, s) == pytest.approx(
        feats.linear_potential(s, m.feature_index, m.lam)
    )


def test_log_weight_is_component_sum():
    m = _mixed_model(seed=2)
    s = (0, 2, 1)
    expected = feats.linear_potential(s, m.feature_index, m.lam) + helpers.phi_forward(
        s, m.phi_params
    )[0]
    assert helpers.log_weight(m, s) == pytest.approx(expected, rel=1e-12)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_chunked_log_weight_batch_equals_one_potential_batch(data):
    kind = data.draw(st.sampled_from(["discrete", "neural", "mixed"]))
    V, L = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 7))
    d = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sents = helpers.shuffled_batch(rng, V, data.draw(st.lists(st.integers(1, L), max_size=30)))
    index = feats.build_feature_index(sents, feats.compile_templates("w:2"), "00")
    phi = {k: rng.uniform(-0.5, 0.5, v.shape) for k, v in neural.init_phi_params(V, d).items()}
    model = TrfModel(
        _vocab(V), LengthPrior(np.full(L, 1.0 / L)), zeta_init(V, L),
        feature_index=index if kind != "neural" else None,
        lam=rng.uniform(-1, 1, index.n_features) if kind != "neural" else None,
        phi_params=phi if kind != "discrete" else None,
    )
    # a budget of 1..(all tokens + 3) real tokens per chunk
    total = sum(map(len, sents))
    budget = data.draw(st.integers(1, total + 3))
    per_token = 16 * (d if kind != "discrete" else 1)
    chunks = []
    potential_batch = model.potential_batch
    # the per-chunk call of log_weight_batch, which scores forward-only
    model.potential_batch = lambda batch, **kw: chunks.append(batch) or potential_batch(batch, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "SCORE_FLOATS", budget * per_token)
        got = model.log_weight_batch(sents)
    want = potential_batch(sents)[0]
    assert sorted(map(len, sum(chunks, []))) == sorted(map(len, sents))
    for chunk in chunks:
        assert len(chunk) == 1 or sum(map(len, chunk)) <= budget
    if len(chunks) <= 1:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_chunked_log_weight_batch_covers_each_chunk_shape(monkeypatch):
    m = _mixed_model(V=3, L=3, d=2, seed=6)
    rng = np.random.default_rng(6)
    sents = helpers.shuffled_batch(rng, 3, [1, 2, 3] * 4)  # 24 tokens
    want = m.potential_batch(sents)[0]
    per_token = 16 * 2
    calls = []
    monkeypatch.setattr(
        m, "potential_batch", lambda b, **kw: calls.append(b) or TrfModel.potential_batch(m, b, **kw)
    )
    # lengths 1,1,1,1,2,2,2,2,3,3,3,3: every sentence alone, most over the
    # budget; pairs, then single sentences over it; several; all in one
    for budget, n_chunks in [(1, 12), (2, 10), (3, 9), (6, 4), (24, 1)]:
        monkeypatch.setattr(model_mod, "SCORE_FLOATS", budget * per_token)
        calls.clear()
        got = m.log_weight_batch(sents)
        assert len(calls) == n_chunks, budget
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert got.tobytes() == want.tobytes()


def test_scoring_builds_input_tables_only_for_calls_with_v_tokens_that_fit(monkeypatch):
    m = _mixed_model(V=3, L=3, d=2, seed=8)
    built = []
    input_tables = neural.input_tables
    monkeypatch.setattr(neural, "input_tables", lambda p: built.append(p) or input_tables(p))

    def built_for(sents, model=m):
        built.clear()
        got = model.log_weight_batch(sents)
        assert got.tobytes() == model.potential_batch(sents)[0].tobytes()
        return len(built)

    # one word: the table would be a one-row (gemv) product
    phi = {k: np.random.default_rng(8).uniform(-1, 1, v.shape) for k, v in neural.init_phi_params(1, 4).items()}
    one = TrfModel(_vocab(1), LengthPrior(np.full(3, 1 / 3)), zeta_init(1, 3), phi_params=phi)
    assert built_for([(0, 0, 0), (0, 0)], one) == 0

    # the paper setting's V = 1998 at d = 200 fits; the CLI default V = 10000 does not
    assert 8 * 1998 * 200 <= model_mod.SCORE_FLOATS < 8 * 10000 * 200
    assert built_for([(1,), (2,)]) == 0  # 2 real tokens, V = 3
    assert built_for([(1, 2), (0,)]) == 1
    # both tables, 8 V d floats, must fit in SCORE_FLOATS
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", 8 * 3 * 2)
    assert built_for([(1, 2), (0,)]) == 1
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", 8 * 3 * 2 - 1)
    assert built_for([(1, 2), (0,)]) == 0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_only_scoring_peak_falls_and_stays_within_the_budget(monkeypatch):
    # one layer, as the CLI default; V = 1000 at d = 16: the tables (8 V d
    # floats) do not fit, so layer 0 takes its gates from x @ W
    V, L, d, budget = 1000, 12, 16, 400
    rng = np.random.default_rng(12)
    phi = neural.init_phi_params(V, d, seed=12)
    m = TrfModel(_vocab(V), LengthPrior(np.full(L, 1.0 / L)), zeta_init(V, L), phi_params=phi)
    sents = helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=300))
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", budget * 16 * d)
    assert 8 * V * d > model_mod.SCORE_FLOATS and sum(map(len, sents)) >= V

    def cached():  # the path gradient takes: each chunk's forward cache, then dropped
        for idx in m.chunks(sents):
            m.potential_batch([sents[j] for j in idx])

    m.log_weight_batch(sents)  # warm up lazily allocated state
    forward_only, with_cache = _traced_peak(lambda: m.log_weight_batch(sents)), _traced_peak(cached)
    assert forward_only < 0.75 * with_cache, (forward_only, with_cache)
    assert forward_only <= 8 * model_mod.SCORE_FLOATS, forward_only


def test_two_layer_gradient_peak_is_no_higher_than_one_layer(monkeypatch):
    # a chunk's forward cache grows with the layers, so the budget counts them
    V, L, d, budget = 1000, 12, 16, 400
    rng = np.random.default_rng(13)
    sents = helpers.shuffled_batch(rng, V, rng.integers(1, L + 1, size=300))
    monkeypatch.setattr(model_mod, "SCORE_FLOATS", budget * 16 * d)
    weigh = lambda idx, score: np.ones(len(idx))
    peaks = []
    for n_layers in (1, 2):
        phi = neural.init_phi_params(V, d, n_layers=n_layers, seed=13)
        m = TrfModel(_vocab(V), LengthPrior(np.full(L, 1.0 / L)), zeta_init(V, L), phi_params=phi)
        m.gradient(sents, weigh)  # warm up lazily allocated state
        peaks.append(_traced_peak(lambda: m.gradient(sents, weigh)))
    assert peaks[1] <= peaks[0], peaks


def test_log_prob_with_oracle_zeta_normalizes_jointly():
    m = _mixed_model(seed=3)
    space = oracle.EnumSpace(3, 3)
    m.zeta = oracle.exact_log_z(m, space)
    total = sum(math.exp(m.log_prob(s)) for s in helpers.all_sentences(space))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_log_prob_decomposes():
    m = _mixed_model(seed=4)
    s = (1, 0)
    expected = (
        math.log(m.prior.prob(2))
        + feats.linear_potential(s, m.feature_index, m.lam)
        + helpers.phi_forward(s, m.phi_params)[0]
        - m.zeta[1]
    )
    assert m.log_prob(s) == pytest.approx(expected, rel=1e-12)


def test_log_prob_zero_prior_length_errors():
    prior = LengthPrior(np.array([1.0, 0.0]))
    model = TrfModel(_vocab(2), prior, zeta_init(2, 2))
    with pytest.raises(CorpusError):
        model.log_prob((0, 1))


def test_save_load_bit_identical_scores(tmp_path):
    m = _mixed_model(seed=5)
    path = tmp_path / "model.trf"
    m.save(path)
    loaded = TrfModel.load(path)
    rng = np.random.default_rng(0)
    for _ in range(100):
        l = int(rng.integers(1, 4))
        s = tuple(rng.integers(0, 3, size=l))
        assert loaded.log_prob(s) == m.log_prob(s)  # bit-exact


def test_save_omits_layer_count_and_loads_files_that_have_one(tmp_path):
    m = _mixed_model(seed=5)
    path = tmp_path / "model.trf"
    m.save(path)
    manifest, arrays = read_container(path)
    assert "n_layers" not in manifest
    manifest["n_layers"] = 1  # as earlier versions wrote it
    write_container(path, manifest, arrays)
    loaded = TrfModel.load(path)
    for k, v in m.params().items():
        assert loaded.params()[k].tobytes() == v.tobytes()


@pytest.mark.parametrize("max_order", [2, "x"], ids=["stored", "a-string"])
def test_save_omits_max_order_and_loads_files_that_have_one(tmp_path, max_order):
    m = _mixed_model(seed=5, n_classes=2)
    path = tmp_path / "model.trf"
    m.save(path)
    manifest, arrays = read_container(path)
    assert "max_order" not in manifest
    manifest["max_order"] = max_order  # as earlier versions wrote it, or damaged
    write_container(path, manifest, arrays)
    loaded = TrfModel.load(path)
    for k, v in m.params().items():
        assert loaded.params()[k].tobytes() == v.tobytes()
    sentences = list(helpers.all_sentences(oracle.EnumSpace(3, 3)))
    assert loaded.log_prob_batch(sentences).tobytes() == m.log_prob_batch(sentences).tobytes()


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"has_discrete": "no"}, ": manifest key 'has_discrete' is not of type bool"),
        ({"has_neural": 1}, ": manifest key 'has_neural' is not of type bool"),
        ({"template_spec": 5}, ": manifest key 'template_spec' is not of type str"),
        ({"templates": "w:2"},
         ": manifest key 'templates' is not of type null or list of [str, list of int]"),
        ({"templates.0.1": [True]}, ": manifest key 'templates' is not of type null or list of"),
        ({"templates.0": ["word"]}, ": manifest key 'templates' is not of type null or list of"),
        ({"templates.0.0": "ward"},
         ": manifest key 'templates': template source 'ward' is not word or class"),
        ({"templates.1.1": [1, 2]},
         ": manifest key 'templates': template offsets (1, 2) are not ints that strictly "
         "increase from 0"),
        ({"templates.1.1": [0, 0]}, ": manifest key 'templates': template offsets (0, 0)"),
        ({"vocab": "abc"}, ": manifest key 'vocab' is not of type list of str"),
        ({"vocab.2": "w1"}, ": manifest key 'vocab': duplicate words in vocabulary"),
        ({"unk_token": "zzz"}, ": manifest key 'vocab': unk token 'zzz' missing from vocabulary"),
        ({"class_map": None}, ": class templates need a stored class_map"),
        ({"class_map": [0, 1, "1"]},
         ": manifest key 'class_map' is not of type null or list of int"),
        ({"n_classes": 2.0}, ": manifest key 'n_classes' is not of type null or int"),
        ({"n_classes": None}, ": class_map must give each of the 3 words a class id"),
    ],
    ids=[
        "has-discrete-a-string", "has-neural-an-int", "template-spec-an-int", "templates-a-string",
        "template-offset-a-bool", "template-without-offsets", "template-source-ward",
        "template-offsets-from-1", "template-offsets-repeated", "vocab-a-string",
        "vocab-repeats-a-word", "unk-token-not-in-vocab", "class-templates-without-a-class-map",
        "class-id-a-string", "n-classes-a-float", "class-map-without-n-classes",
    ],
)
def test_load_refuses_a_bad_manifest_value_naming_file_and_key(tmp_path, edits, message):
    m = _mixed_model(seed=5, n_classes=2)
    path = tmp_path / "bad.trf"
    m.save(path)
    helpers.edit_manifest(path, edits)
    with pytest.raises(ModelError) as exc:
        TrfModel.load(path)
    assert str(exc.value).startswith(str(path) + message), exc.value


def _declared_keys(manifest, declared):
    """Whether manifest holds exactly the declared keys, those of each
    object they declare included."""
    return manifest.keys() == declared.keys() and all(
        type(t) is not dict or _declared_keys(manifest[k], t) for k, t in declared.items()
    )


def test_each_file_holds_exactly_its_declared_manifest_keys(tmp_path):
    m = _mixed_model(seed=5, n_classes=2)
    own = {"kind": None, "format_version": None, "arrays": None}  # not declared per kind
    files = []
    for mode in ["discrete", "neural", "mixed"]:
        path = tmp_path / ("%s.trf" % mode)
        discrete, neural_ = mode != "neural", mode != "discrete"
        TrfModel(
            m.vocab, m.prior, m.zeta,
            feature_index=m.feature_index if discrete else None, lam=m.lam if discrete else None,
            phi_params=m.phi_params if neural_ else None,
            class_map=m.class_map if discrete else None, template_spec=m.template_spec,
        ).save(path)
        files.append((path, "trf-model"))
    nm = noise.init_noise_model(3, 2, m.prior)
    save_noise_model(nm, m.vocab, tmp_path / "noise.trf")
    files.append((tmp_path / "noise.trf", "noise-model"))
    sentences = list(helpers.all_sentences(oracle.EnumSpace(3, 3)))
    config = trainer.DnceConfig(batch_size=4, max_epochs=1, average_tail=1, stop_ratio=0)
    trainer.train(config, sentences, sentences, m, nm, checkpoint_path=tmp_path / "ckpt")
    files.append((tmp_path / "ckpt", "dnce-checkpoint"))
    for path, kind in files:
        manifest = read_container(path)[0]
        assert manifest["kind"] == kind
        assert _declared_keys(manifest, {**model_mod.MANIFEST_KEYS[kind], **own}), path


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("trf-model", "lam", np.nan),
        ("trf-model", "keys.1", np.nan),
        ("noise-model", "mu.emb", np.inf),
        ("dnce-checkpoint", "adam.v.zeta", -np.inf),
    ],
    ids=["model-lam-nan", "model-keys-nan", "noise-inf", "checkpoint-minus-inf"],
)
def test_load_refuses_a_file_holding_nan_or_inf_naming_file_and_array(tmp_path, kind, name, value):
    m = _mixed_model(seed=5, n_classes=2)
    nm = noise.init_noise_model(3, 2, m.prior)
    path = tmp_path / kind
    sentences = list(helpers.all_sentences(oracle.EnumSpace(3, 3)))
    config = trainer.DnceConfig(batch_size=4, max_epochs=1)

    def run(resume):
        trainer.train(config, sentences, sentences, m, nm, checkpoint_path=path, resume=resume)

    save, load = {
        "trf-model": (lambda: m.save(path), lambda: TrfModel.load(path)),
        "noise-model": (
            lambda: save_noise_model(nm, m.vocab, path), lambda: load_noise_model(path)
        ),
        "dnce-checkpoint": (lambda: run(False), lambda: run(True)),
    }[kind]
    save()
    manifest, arrays = read_container(path)
    arrays[name].flat[0] = value
    write_container(path, manifest, arrays)
    with pytest.raises(ModelError) as exc:
        load()
    assert str(exc.value) == "%s holds NaN or infinite values in the arrays %s" % (path, name)


def test_save_load_index_built_from_numpy_integers(tmp_path):
    rng = np.random.default_rng(7)
    V, L = 6, 4
    corpus = [tuple(rng.integers(0, V, size=l)) for l in rng.integers(1, L + 1, size=40)]
    index = feats.build_feature_index(corpus, feats.compile_templates("w:2"), "00")
    prior = LengthPrior(np.full(L, 1.0 / L))
    m = TrfModel(
        _vocab(V), prior, zeta_init(V, L), feature_index=index,
        lam=rng.normal(size=index.n_features), template_spec="w:2",
    )
    path = tmp_path / "np-keys.trf"
    m.save(path)
    loaded = TrfModel.load(path)
    assert helpers.feature_keys(loaded.feature_index) == helpers.feature_keys(index)
    assert np.array_equal(loaded.log_prob_batch(corpus), m.log_prob_batch(corpus))


def test_save_load_class_feature_keys_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    V, L = 9, 6
    corpus = [tuple(rng.integers(0, V, size=l)) for l in rng.integers(1, L + 1, size=60)]
    class_map = ClassMap(np.arange(V) % 4, 4)
    tset = feats.compile_templates("w+c+ws+cs:3", class_map_present=True)
    index = feats.build_feature_index(corpus, tset, "001", class_map=class_map)
    prior = LengthPrior(np.full(L, 1.0 / L))
    m = TrfModel(
        _vocab(V), prior, zeta_init(V, L), feature_index=index,
        lam=rng.normal(size=index.n_features),
        phi_params=neural.init_phi_params(V, 3, seed=2),
        class_map=class_map, template_spec="w+c+ws+cs:3",
    )
    path = tmp_path / "classes.trf"
    m.save(path)
    manifest, arrays = read_container(path)
    assert "feature_keys" not in manifest
    assert [arrays["keys.%d" % t].shape for t in range(len(tset.templates))] == [
        a.shape for a in index.key_arrays
    ]
    loaded = TrfModel.load(path)
    assert helpers.feature_keys(loaded.feature_index) == helpers.feature_keys(index)
    assert loaded.log_prob_batch(corpus).tobytes() == m.log_prob_batch(corpus).tobytes()


def test_load_refuses_json_feature_keys(tmp_path):
    m = _mixed_model(seed=5)
    path = tmp_path / "old.trf"
    m.save(path)
    manifest, arrays = read_container(path)
    # the layout of earlier versions: keys as a JSON list, no keys.<tid> arrays
    manifest["feature_keys"] = [
        [tid, list(vals)] for tid, vals in helpers.feature_keys(m.feature_index)
    ]
    arrays = {k: v for k, v in arrays.items() if not k.startswith("keys.")}
    write_container(path, manifest, arrays)
    with pytest.raises(ModelError, match="old.trf lacks the array 'keys.0'"):
        TrfModel.load(path)


def _edited(a, row, col, value):
    a = a.copy()
    a[row, col] = value
    return a


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("keys.1", lambda a: _edited(a, 0, 1, a[0, 1] + 0.5),
         "bad feature keys: feature key values must be whole numbers"),
        ("keys.1", lambda a: _edited(a, 0, 0, -1.0),
         "bad feature keys: feature key values must be >= 0"),
        ("keys.1", lambda a: a[[1, 0, *range(2, len(a))]],
         "bad feature keys: .*rows must be strictly increasing"),
        ("keys.1", lambda a: _edited(a, 1, slice(None), a[0]),
         "bad feature keys: .*rows must be strictly increasing"),
        ("keys.1", lambda a: _edited(a, len(a) - 1, 1, 2.0**60),
         "bad feature keys: keys.1 holds a word value >= 3"),
        ("keys.1", lambda a: a[:, :1], r"array keys.1 has shape \((\d+), 1\), not \(\1, 2\)"),
        # V = 3 words and 2 classes: the last rows, (2, 2) and (1, 1), stay increasing
        ("keys.1", lambda a: _edited(a, len(a) - 1, 1, 3.0),
         "bad feature keys: keys.1 holds a word value >= 3"),
        ("keys.3", lambda a: _edited(a, len(a) - 1, 1, 2.0),
         "bad feature keys: keys.3 holds a class value >= 2"),
    ],
    ids=[
        "fractional", "negative", "unsorted", "duplicate", "too-large", "wrong-order",
        "word-value-V", "class-value-n-classes",
    ],
)
def test_load_refuses_bad_feature_key_arrays(tmp_path, name, edit, message):
    m = _mixed_model(seed=5, n_classes=2)
    path = tmp_path / "bad-keys.trf"
    m.save(path)
    manifest, arrays = read_container(path)
    arrays[name] = edit(arrays[name])
    write_container(path, manifest, arrays)
    with pytest.raises(ModelError, match="bad-keys.trf: " + message):
        TrfModel.load(path)


@pytest.mark.parametrize("damage", helpers.DAMAGES)
@pytest.mark.parametrize("mode", ["discrete", "neural", "mixed"])
def test_model_file_holds_exactly_its_declared_arrays(tmp_path, mode, damage):
    m = _mixed_model(seed=5, n_classes=2)
    discrete, neural_ = mode != "neural", mode != "discrete"
    model = TrfModel(
        m.vocab, m.prior, m.zeta,
        feature_index=m.feature_index if discrete else None, lam=m.lam if discrete else None,
        phi_params=m.phi_params if neural_ else None, class_map=m.class_map,
        template_spec=m.template_spec,
    )
    path = tmp_path / "m.trf"
    model.save(path)
    TrfModel.load(path)
    for name in helpers.damage_each_array(path, damage):
        with pytest.raises(ModelError) as exc:
            TrfModel.load(path)
        assert helpers.names_file_and_array(str(exc.value), path, name), exc.value


@pytest.mark.parametrize("damage", helpers.DAMAGES)
def test_noise_file_holds_exactly_its_declared_arrays(tmp_path, damage):
    path = tmp_path / "noise.trf"
    save_noise_model(noise.init_noise_model(4, 3, LengthPrior(np.array([0.5, 0.5]))), _vocab(4), path)
    load_noise_model(path)
    for name in helpers.damage_each_array(path, damage):
        with pytest.raises(ModelError) as exc:
            load_noise_model(path)
        assert helpers.names_file_and_array(str(exc.value), path, name), exc.value


def test_each_loader_refuses_a_file_of_another_kind_naming_both_kinds(tmp_path):
    m = _mixed_model(seed=5)
    model_path, noise_path = tmp_path / "m.trf", tmp_path / "noise.trf"
    m.save(model_path)
    save_noise_model(noise.init_noise_model(3, 2, m.prior), m.vocab, noise_path)
    with pytest.raises(ModelError, match=r"m\.trf is not a noise-model file \(kind 'trf-model'\)"):
        load_noise_model(model_path)
    with pytest.raises(ModelError, match=r"noise\.trf is not a trf-model file \(kind 'noise-model'\)"):
        TrfModel.load(noise_path)


def test_save_load_discrete_only(tmp_path):
    m = _mixed_model(seed=6)
    discrete = TrfModel(
        m.vocab, m.prior, m.zeta.copy(),
        feature_index=m.feature_index, lam=m.lam.copy(), template_spec="w:2",
    )
    path = tmp_path / "d.trf"
    discrete.save(path)
    loaded = TrfModel.load(path)
    assert not loaded.has_neural
    assert loaded.log_prob((1, 2)) == discrete.log_prob((1, 2))


def test_load_peak_is_at_most_twice_what_the_model_keeps(tmp_path):
    # the benchmark's paper feature set, at d = 16
    root = Path(__file__).resolve().parent.parent
    with open(root / "data" / "train.txt", encoding="utf-8") as fh:
        vocab = corpus_mod.build_vocab(fh.readlines(), 2000)
    sents = corpus_mod.read_corpus(root / "data" / "train.txt", vocab, max_length=60)
    prior = corpus_mod.length_prior(sents, max(map(len, sents)))
    class_map = ClassMap.load(root / "perfbench" / "classes200.txt", vocab)
    tset = feats.compile_templates("w+c+ws+cs:4", class_map_present=True)
    index = feats.build_feature_index(sents, tset, "0022", class_map=class_map)
    path = tmp_path / "paper.trf"
    TrfModel(
        vocab, prior, zeta_init(vocab.size, prior.max_length), feature_index=index,
        lam=np.zeros(index.n_features), phi_params=neural.init_phi_params(vocab.size, 16, seed=0),
        class_map=class_map, template_spec="w+c+ws+cs:4",
    ).save(path)
    del index
    TrfModel.load(path)  # warm up lazily allocated state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = TrfModel.load(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.feature_index.n_features > 300000
    assert peak - before <= 2 * (kept - before), (peak - before, kept - before)


def test_corrupted_payload_fails_checksum(tmp_path):
    m = _mixed_model(seed=7)
    path = tmp_path / "model.trf"
    m.save(path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ContainerError, match="checksum"):
        TrfModel.load(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "m.trf"
    write_container(path, {"kind": "trf-model"}, {"zeta": np.zeros(1)})
    raw = path.read_bytes()
    bumped = raw.replace(b'"format_version": 1', b'"format_version": 9', 1)
    # re-sign so only the version check can fail
    import hashlib

    payload = bumped[: -(6 + 64)]
    path.write_bytes(payload + b"TRFCHK" + hashlib.sha256(payload).hexdigest().encode())
    with pytest.raises(ContainerError, match="version"):
        read_container(path)


def test_truncated_file(tmp_path):
    m = _mixed_model(seed=8)
    path = tmp_path / "model.trf"
    m.save(path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ContainerError):
        TrfModel.load(path)


def test_failed_write_leaves_existing_file_intact(tmp_path):
    path = tmp_path / "model.trf"
    _mixed_model(seed=8).save(path)
    before = path.read_bytes()
    # a file-size limit below the new file's size makes its write fail partway
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (len(before), hard))
    try:
        with pytest.raises(OSError):
            write_container(path, {"kind": "trf-model"}, {"zeta": np.zeros(len(before))})
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.trf"]


def test_noise_sidecar_roundtrip(tmp_path):
    prior = LengthPrior(np.array([0.5, 0.5]))
    vocab = _vocab(3)
    m = noise.init_noise_model(3, 4, prior, seed=9)
    path = tmp_path / "noise.trf"
    save_noise_model(m, vocab, path)
    loaded, loaded_vocab = load_noise_model(path)
    assert loaded_vocab == vocab
    s = (1, 2)
    assert helpers.noise_log_prob(loaded, s) == helpers.noise_log_prob(m, s)
