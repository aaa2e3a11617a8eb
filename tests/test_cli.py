import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from trflm import cli, corpus, features, neural, noise, trainer
from trflm.container import read_container, write_container
from trflm.model import TrfModel, zeta_init


@pytest.fixture
def tiny_corpus(tmp_path):
    lines = [
        "the cat sat",
        "the dog sat",
        "a cat ran",
        "the cat ran",
        "a dog sat",
        "the dog ran",
        "a cat sat",
        "the cat",
        "a dog",
        "the dog sat here",
    ]
    train = tmp_path / "train.txt"
    train.write_text("\n".join(lines * 3) + "\n")
    dev = tmp_path / "dev.txt"
    dev.write_text("the cat sat\na dog ran\n")
    return train, dev


def _run(argv):
    return cli.main([str(a) for a in argv])


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("alpha = 0.5\nmax_epochs = 3  # comment\n\n")
    cfg = cli.load_config(path, ["seed=7"])
    assert cfg["alpha"] == 0.5
    assert cfg["max_epochs"] == 3
    assert cfg["seed"] == 7
    assert cfg["nu"] == 1.0  # untouched default


def test_load_config_has_every_trainer_field_with_its_default():
    cfg = cli.load_config()
    fs = fields(trainer.DnceConfig)
    assert {f.name: cfg.get(f.name) for f in fs} == {f.name: f.default for f in fs}


def test_load_config_reports_all_problems(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("bogus_key=1\nalpha=abc\n")
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_config(path)
    msg = str(exc.value)
    assert "bogus_key" in msg and "alpha" in msg


def test_load_config_malformed_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("just a line without equals\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


def test_cluster_writes_map_and_is_deterministic(tmp_path, tiny_corpus):
    train, _ = tiny_corpus
    out1 = tmp_path / "c1.txt"
    out2 = tmp_path / "c2.txt"
    assert _run(["cluster", train, out1, "--n-classes", 3, "--seed", 1]) == 0
    assert _run(["cluster", train, out2, "--n-classes", 3, "--seed", 1]) == 0
    assert out1.read_text() == out2.read_text()
    rows = [line.split("\t") for line in out1.read_text().splitlines()]
    assert all(len(r) == 2 for r in rows)
    assert len({int(c) for _, c in rows}) <= 3


def test_cluster_too_many_classes_is_usage_error(tmp_path, tiny_corpus):
    train, _ = tiny_corpus
    assert _run(["cluster", train, tmp_path / "c.txt", "--n-classes", 500]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample", "missing.noise", "--seed", "-1"], "--seed"),
        (["sample", "missing.noise", "--count", "-3"], "--count"),
        (["cluster", "missing.txt", "out.txt", "--n-classes", 3, "--seed", "-1"], "--seed"),
        (["oracle-check", "--seed", "-1"], "--seed"),
    ],
    ids=["sample-seed", "sample-count", "cluster-seed", "oracle-check-seed"],
)
def test_negative_seed_or_count_exit_2_naming_flag(argv, flag, capsys):
    # the input files do not exist: the flag is refused before any is read
    assert _run(argv) == 2
    assert "argument %s: must be >= 0" % flag in capsys.readouterr().err


_CLUSTER = ["cluster", "missing.txt", "out.txt", "--n-classes", 3]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cluster", "missing.txt", "out.txt", "--n-classes", "0"], "--n-classes"),
        (["cluster", "missing.txt", "out.txt", "--n-classes", "-2"], "--n-classes"),
        (_CLUSTER + ["--vocab-size", "0"], "--vocab-size"),
        (_CLUSTER + ["--max-iters", "-1"], "--max-iters"),
        (["oracle-check", "--vocab", "0"], "--vocab"),
        (["oracle-check", "--max-length", "0"], "--max-length"),
        (["oracle-check", "--dim", "-1"], "--dim"),
    ],
    ids=[
        "cluster-n-classes-0", "cluster-n-classes-negative", "cluster-vocab-size",
        "cluster-max-iters", "oracle-check-vocab", "oracle-check-max-length", "oracle-check-dim",
    ],
)
def test_non_positive_size_exit_2_naming_flag(argv, flag, capsys):
    # the input files do not exist: the flag is refused before any is read
    assert _run(argv) == 2
    assert "argument %s: must be >= 1" % flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rescore_non_finite_lm_weight_exit_2_naming_flag(value, capsys):
    # "--lm-weight -inf" would read -inf as a flag, so the value is attached
    assert _run(["rescore", "missing.nbest", "missing.trf", "--lm-weight=" + value]) == 2
    assert "argument --lm-weight: must be a finite number" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(capsys):
    assert _run(["frobnicate"]) == 2
    capsys.readouterr()


def _train_args(tmp_path, train, dev, mode, extra=()):
    model_out = tmp_path / ("%s.trf" % mode)
    argv = [
        "train",
        "--set", "train_corpus=%s" % train,
        "--set", "dev_corpus=%s" % dev,
        "--set", "model_out=%s" % model_out,
        "--set", "mode=%s" % mode,
        "--set", "templates=w:2",
        "--set", "cutoffs=00",
        "--set", "hidden_dim=4",
        "--set", "noise_dim=4",
        "--set", "batch_size=10",
        "--set", "max_epochs=1",
        "--set", "alpha=0.5",
        "--set", "schedule=per-epoch-halving",
        "--set", "log_out=%s" % (tmp_path / "log.tsv"),
    ]
    for item in extra:
        argv += ["--set", item]
    return argv, model_out


@pytest.mark.parametrize("mode", ["discrete", "neural", "mixed"])
def test_train_each_mode_produces_loadable_model(tmp_path, tiny_corpus, mode):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, mode)
    assert _run(argv) == 0
    model = TrfModel.load(model_out)
    assert model.has_discrete == (mode != "neural")
    assert model.has_neural == (mode != "discrete")
    assert np.isfinite(model.log_prob((1, 2)))


def test_train_reads_the_training_corpus_once(tmp_path, tiny_corpus, monkeypatch):
    train, dev = tiny_corpus
    paths, read_lines = [], corpus.read_lines

    def counted(path):
        paths.append(str(path))
        return read_lines(path)

    monkeypatch.setattr(corpus, "read_lines", counted)
    argv, _ = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    assert paths.count(str(train)) == 1
    assert paths.count(str(dev)) == 1


def test_train_missing_required_keys_exit_2(tmp_path):
    assert _run(["train", "--set", "mode=discrete"]) == 2


def test_train_cutoff_length_mismatch_exit_2(tmp_path, tiny_corpus):
    train, dev = tiny_corpus
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["cutoffs=0000"])
    assert _run(argv) == 2


@pytest.mark.parametrize(
    "setting, message",
    [
        ("schedule=bogus", "unknown schedule 'bogus'"),
        ("alpha=1.5", "alpha must be in (0, 1)"),
        ("lr_noise=-1", "lr_noise must be positive"),
        ("nu=nan", "nu must be a finite number"),
        ("lr_theta=inf", "lr_theta must be a finite number"),
        ("lr_zeta=nan", "lr_zeta must be a finite number"),
        ("halving_threshold=nan", "halving_threshold must be a finite number"),
        ("stop_ratio=-inf", "stop_ratio must be a finite number"),
        ("batch_size=0", "batch_size must be >= 1"),
        ("max_epochs=0", "max_epochs must be >= 1"),
        ("seed=-1", "seed must be >= 0"),
        ("hidden_dim=0", "hidden_dim must be >= 1"),
        ("noise_dim=-3", "noise_dim must be >= 1"),
        ("n_layers=0", "n_layers must be >= 1"),
        ("vocab_size=0", "vocab_size must be >= 1"),
        ("max_train_length=0", "max_train_length must be >= 1"),
        ("alpha=0.01", "alpha = 199 noise draws per data sentence, more than 100"),
        ("average_tail=-1", "average_tail must be >= 0"),
        ("average_tail=2", "average_tail needs per-epoch-halving or stop_ratio <= 0"),
        ("halve_every=0", "halve_every must be >= 1"),
        ("resume=7", "resume must be 0 or 1"),
        ("resume=1", "resume = 1 needs a checkpoint"),
        ("model_out=no-such-dir/m.trf", "model_out: directory 'no-such-dir' does not exist"),
        ("noise_out=no-such-dir/n.trf", "noise_out: directory 'no-such-dir' does not exist"),
        ("log_out=no-such-dir/log.tsv", "log_out: directory 'no-such-dir' does not exist"),
        ("checkpoint=no-such-dir/ckpt", "checkpoint: directory 'no-such-dir' does not exist"),
    ],
    ids=[
        "schedule", "alpha", "lr_noise", "nu-nan", "lr_theta-inf", "lr_zeta-nan",
        "halving_threshold-nan", "stop_ratio-inf", "batch_size", "max_epochs", "seed",
        "hidden_dim", "noise_dim", "n_layers", "vocab_size", "max_train_length",
        "noise-draws", "average_tail", "average_tail-dev-halving", "halve_every", "resume-7",
        "resume-no-checkpoint",
        "model_out-dir", "noise_out-dir", "log_out-dir", "checkpoint-dir",
    ],
)
def test_train_invalid_trainer_setting_exit_2_before_reading(tmp_path, capsys, setting, message):
    argv = ["train"]
    for item in (
        "train_corpus=%s" % (tmp_path / "missing.txt"),
        "dev_corpus=%s" % (tmp_path / "missing-dev.txt"),
        "model_out=%s" % (tmp_path / "m.trf"),
        setting,
    ):
        argv += ["--set", item]
    assert _run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, message",
    [
        (["checkpoint={tmp}/m.trf"], "model_out and checkpoint name the same file"),
        (["noise_out={tmp}/m.trf"], "model_out and noise_out name the same file"),
        (["log_out={tmp}/./m.trf"], "model_out and log_out name the same file"),
        (["noise_out={tmp}/n", "checkpoint={tmp}/n"], "noise_out and checkpoint name the same"),
        (["resume=1", "checkpoint={tmp}/ckpt"], "resume = 1: checkpoint '{tmp}/ckpt' is not a file"),
        (["resume=1", "checkpoint={tmp}"], "resume = 1: checkpoint '{tmp}' is not a file"),
    ],
    ids=["checkpoint-model_out", "noise_out-model_out", "log_out-model_out",
         "checkpoint-noise_out", "resume-missing-checkpoint", "resume-checkpoint-dir"],
)
def test_train_shared_output_or_missing_checkpoint_exit_2_before_reading(
    tmp_path, capsys, settings, message
):
    argv = ["train"]
    for item in (
        "train_corpus=%s" % (tmp_path / "missing.txt"),
        "dev_corpus=%s" % (tmp_path / "missing-dev.txt"),
        "model_out=%s" % (tmp_path / "m.trf"),
        *settings,
    ):
        argv += ["--set", item.format(tmp=tmp_path)]
    assert _run(argv) == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


def test_train_no_sentence_within_max_train_length_exit_1(tmp_path, capsys):
    train = tmp_path / "train.txt"
    train.write_text("the cat sat\na dog ran\n")
    argv, _ = _train_args(tmp_path, train, train, "neural", ["max_train_length=2"])
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "%s: no sentence is as short as max_train_length=2" % train in err


def test_train_no_dev_sentence_of_a_training_length_exit_1(tmp_path, capsys):
    train = tmp_path / "train.txt"
    train.write_text("the cat sat\na dog ran\n")
    dev = tmp_path / "dev.txt"
    dev.write_text("the cat\nthe cat sat here\n")
    argv, _ = _train_args(tmp_path, train, dev, "neural")
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "%s: no sentence has a length seen in training (1..3)" % dev in err


def test_train_with_averaging_writes_what_trainer_train_writes(tmp_path, tiny_corpus):
    train, dev = tiny_corpus
    argv, model_out = _train_args(
        tmp_path, train, dev, "mixed", ["max_epochs=3", "average_tail=3", "halve_every=2"]
    )
    assert _run(argv) == 0

    # cmd_train's set-up at _train_args' settings, then trainer.train itself
    config = trainer.DnceConfig(
        alpha=0.5, batch_size=10, max_epochs=3, schedule="per-epoch-halving",
        average_tail=3, halve_every=2,
    )
    vocab = corpus.build_vocab(train.read_text().splitlines(), 10000)
    sents = corpus.read_corpus(train, vocab, max_length=60)
    L = max(len(s) for s in sents)
    prior = corpus.length_prior(sents, L)
    dev_sents = [s for s in corpus.read_corpus(dev, vocab, max_length=L) if prior.prob(len(s)) > 0]
    tset = features.compile_templates("w:2", class_map_present=False)
    index = features.build_feature_index(sents, tset, "00")
    model = TrfModel(
        vocab, prior, zeta_init(vocab.size, L), feature_index=index,
        lam=np.zeros(index.n_features), phi_params=neural.init_phi_params(vocab.size, 4, seed=0),
        template_spec="w:2",
    )
    trainer.train(config, sents, dev_sents, model, noise.init_noise_model(vocab.size, 4, prior))
    model.save(tmp_path / "direct.trf")

    got_manifest, got = read_container(model_out)
    want_manifest, want = read_container(tmp_path / "direct.trf")
    assert got_manifest == want_manifest
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize(
    "settings, message",
    [
        (["templates=x:2"], "unknown feature type 'x'"),
        (["templates=w:x"], "max order must be an integer, got 'x'"),
        (["cutoffs=0a"], "cutoff string must be digits, got '0a'"),
        (["templates=ws:2", "cutoffs=00"], "need 3 cutoffs, got 2"),
        (["templates="], "missing required config key 'templates'"),
        (["cutoffs="], "missing required config key 'cutoffs'"),
        (["templates=w+c:2"], "feature type 'c' requires a class map"),
    ],
    ids=[
        "unknown-type", "order-not-integer", "cutoffs-not-digits", "skip-trigram-order",
        "no-templates", "no-cutoffs", "class-features-without-map",
    ],
)
def test_train_invalid_feature_setting_exit_2_before_reading(tmp_path, capsys, settings, message):
    argv = ["train"]
    for item in (
        "train_corpus=%s" % (tmp_path / "missing.txt"),
        "dev_corpus=%s" % (tmp_path / "missing-dev.txt"),
        "model_out=%s" % (tmp_path / "m.trf"),
        "mode=discrete",
        "templates=w:2",
        "cutoffs=00",
        *settings,
    ):
        argv += ["--set", item]
    assert _run(argv) == 2
    assert message in capsys.readouterr().err


def test_train_class_features_without_map_exit_2(tmp_path, tiny_corpus):
    train, dev = tiny_corpus
    argv, _ = _train_args(
        tmp_path, train, dev, "discrete", ["templates=w+c:2"]
    )
    assert _run(argv) == 2


def test_train_with_class_map(tmp_path, tiny_corpus):
    train, dev = tiny_corpus
    cmap = tmp_path / "classes.txt"
    assert _run(["cluster", train, cmap, "--n-classes", 3]) == 0
    argv, model_out = _train_args(
        tmp_path, train, dev, "discrete",
        ["templates=w+c:2", "class_map=%s" % cmap],
    )
    assert _run(argv) == 0
    assert TrfModel.load(model_out).class_map is not None


def _no_tab(lines):
    lines[0] = lines[0].replace("\t", " ")
    return 1


def _non_integer_class(lines):
    lines[1] = lines[1].split("\t")[0] + "\tx"
    return 2


def _word_listed_twice(lines):
    lines.append(lines[1])
    return len(lines)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_no_tab, "expected 'word<TAB>class id'"),
        (_non_integer_class, "class id 'x'"),
        (_word_listed_twice, "is listed twice"),
    ],
    ids=["no-tab", "non-integer-class", "word-listed-twice"],
)
def test_train_bad_class_map_exit_1(tmp_path, tiny_corpus, capsys, damage, message):
    train, dev = tiny_corpus
    cmap = tmp_path / "classes.txt"
    assert _run(["cluster", train, cmap, "--n-classes", 3]) == 0
    lines = cmap.read_text().splitlines()
    lineno = damage(lines)
    cmap.write_text("\n".join(lines) + "\n")
    argv, _ = _train_args(
        tmp_path, train, dev, "discrete", ["templates=w+c:2", "class_map=%s" % cmap]
    )
    capsys.readouterr()
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert "classes.txt:%d: " % lineno in err and message in err


@pytest.mark.parametrize(
    "damage, resume_set, messages",
    [
        ("truncate", [], ["truncated"]),
        (None, ["hidden_dim=5"], ["array model.phi.emb has shape"]),
        (None, ["mode=discrete"], ["holds undeclared arrays", "model.phi.emb"]),
    ],
    ids=["truncated", "hidden-dim-changed", "mode-changed"],
)
def test_train_resume_refuses_bad_checkpoint(
    tmp_path, tiny_corpus, capsys, damage, resume_set, messages
):
    train, dev = tiny_corpus
    ckpt = tmp_path / "ckpt"
    argv, _ = _train_args(tmp_path, train, dev, "mixed", ["checkpoint=%s" % ckpt])
    assert _run(argv) == 0
    if damage == "truncate":
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    for item in resume_set + ["resume=1"]:
        argv += ["--set", item]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages)


@pytest.mark.parametrize("key", ["adam_t", "avg_n", "rng_state", "state"])
def test_train_resume_checkpoint_without_a_manifest_key_exit_1_names_file_and_key(
    tmp_path, tiny_corpus, capsys, key
):
    train, dev = tiny_corpus
    ckpt = tmp_path / "ckpt"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["checkpoint=%s" % ckpt])
    assert _run(argv) == 0
    manifest, arrays = read_container(ckpt)
    del manifest[key]
    write_container(ckpt, manifest, arrays)
    capsys.readouterr()
    assert _run(argv + ["--set", "resume=1"]) == 1
    assert "error: %s lacks the manifest key %r\n" % (ckpt, key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "state", [[1, 1.0], {"epoch": 1, "halvings": 0}], ids=["a-list", "an-unknown-field"]
)
def test_train_resume_checkpoint_with_a_bad_state_exit_1_names_file(
    tmp_path, tiny_corpus, capsys, state
):
    train, dev = tiny_corpus
    ckpt = tmp_path / "ckpt"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["checkpoint=%s" % ckpt])
    assert _run(argv) == 0
    manifest, arrays = read_container(ckpt)
    manifest["state"] = state
    write_container(ckpt, manifest, arrays)
    capsys.readouterr()
    assert _run(argv + ["--set", "resume=1"]) == 1
    assert "error: %s: manifest key 'state' is no TrainState" % ckpt in capsys.readouterr().err


def test_train_resume_refuses_changed_config_exit_2(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    ckpt = tmp_path / "ckpt"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["checkpoint=%s" % ckpt])
    assert _run(argv) == 0
    capsys.readouterr()
    assert _run(argv + ["--set", "lr_theta=0.01", "--set", "resume=1"]) == 2
    err = capsys.readouterr().err
    assert "lr_theta 0.003 -> 0.01" in err
    # max_epochs alone may change
    assert _run(argv + ["--set", "max_epochs=2", "--set", "resume=1"]) == 0


def test_train_resume_refuses_checkpoint_without_config_exit_2(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    ckpt = tmp_path / "ckpt"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["checkpoint=%s" % ckpt])
    assert _run(argv) == 0
    manifest, arrays = read_container(ckpt)
    del manifest["config"]
    write_container(ckpt, manifest, arrays)
    capsys.readouterr()
    assert _run(argv + ["--set", "resume=1"]) == 2
    assert "stores no trainer config" in capsys.readouterr().err


def test_ppl_command(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("ppl\t")][0]
    assert float(line.split("\t")[1]) > 1.0


@pytest.mark.parametrize(
    "sentence, message",
    [("dog", "lengths with zero prior probability: [1]"),
     ("the cat sat here and there", "lengths outside 1..4: [6]")],
    ids=["zero-prior", "too-long"],
)
def test_ppl_unseen_length_after_blank_lines_exit_1_names_length(
    tmp_path, tiny_corpus, capsys, sentence, message
):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    corpus_file = tmp_path / "test.txt"
    corpus_file.write_text("the cat sat\n\n\n%s\na dog ran\n" % sentence)
    capsys.readouterr()
    assert _run(["ppl", model_out, corpus_file]) == 1
    assert "error: %s" % message in capsys.readouterr().err


_FIRST_LINE = {"nbest": "u1\t0.0\tthe cat sat", "refs": "u1\tthe cat sat", "class_map": "the\t0"}


@pytest.mark.parametrize(
    "reader", ["ppl", "nbest", "refs", "train_corpus", "dev_corpus", "class_map", "cluster"]
)
def test_input_not_utf8_exit_1_names_path_and_line(tmp_path, tiny_corpus, capsys, reader):
    # line 3 holds a Latin-1 byte and follows a blank line
    train, dev = tiny_corpus
    first = _FIRST_LINE.get(reader, "the cat sat").encode()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(first + b"\n\n\xe9" + first + b"\n")
    train_argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    if reader in ("ppl", "nbest", "refs"):
        assert _run(train_argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.0\tthe cat sat\n")
    argv = {
        "ppl": ["ppl", model_out, bad],
        "nbest": ["rescore", bad, model_out],
        "refs": ["rescore", nbest, model_out, "--refs", bad],
        "train_corpus": _train_args(tmp_path, bad, dev, "discrete")[0],
        "dev_corpus": _train_args(tmp_path, train, bad, "discrete")[0],
        "class_map": _train_args(
            tmp_path, train, dev, "discrete", ["templates=w+c:2", "class_map=%s" % bad]
        )[0],
        "cluster": ["cluster", bad, tmp_path / "classes.txt", "--n-classes", 2],
    }[reader]
    capsys.readouterr()
    assert _run(argv) == 1
    assert "error: %s:3: not UTF-8 text" % bad in capsys.readouterr().err


def test_config_not_utf8_exit_2_names_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"alpha = 0.5\n\n\xe9seed = 1\n")
    assert _run(["train", "--config", cfg]) == 2
    assert "config error: %s:3: not UTF-8 text" % cfg in capsys.readouterr().err


def test_ppl_missing_model_exit_1(tmp_path):
    assert _run(["ppl", tmp_path / "nope.trf", tmp_path / "nope.txt"]) == 1


def test_sample_command(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, _ = _train_args(
        tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out]
    )
    assert _run(argv) == 0
    capsys.readouterr()
    assert _run(["sample", noise_out, "--count", 5, "--seed", 3]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 5


def test_rescore_command(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text(
        "u1\t0.0\tthe cat sat\n"
        "u1\t0.0\tthe the the\n"
        "u2\t0.0\ta dog\n"
    )
    refs = tmp_path / "refs.txt"
    refs.write_text("u1\tthe cat sat\nu2\ta dog\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out, "--refs", refs]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("wer\t")
    sel = dict((l.split("\t")[0], int(l.split("\t")[1])) for l in out[:-1])
    assert set(sel) == {"u1", "u2"}


def test_rescore_interpolation_same_model_same_picks(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.1\tthe cat sat\nu1\t0.3\ta dog ran\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out]) == 0
    single = capsys.readouterr().out
    assert _run(["rescore", nbest, model_out, model_out]) == 0
    doubled = capsys.readouterr().out
    pick = lambda s: s.splitlines()[0].split("\t")[1]
    assert pick(single) == pick(doubled)


def test_rescore_bad_nbest_line_exit_1(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.1\tthe cat sat\nu1\tlow\ta dog ran\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out]) == 1
    assert "%s:2: aux score 'low'" % nbest in capsys.readouterr().err


def test_rescore_empty_hypothesis_exit_1_names_line(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.1\tthe cat sat\nu1\t0.3\t\nu2\t0.0\ta dog\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out]) == 1
    assert "error: %s:2: hypothesis has no words" % nbest in capsys.readouterr().err


def test_rescore_zero_prior_length_exit_1_names_utterance(tmp_path, tiny_corpus, capsys):
    # the tiny corpus has no one-word sentence, so length 1 has zero prior
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.1\tthe cat sat\nu2\t0.0\ta dog\nu2\t0.0\tdog\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out]) == 1
    assert (
        "error: utterance 'u2': lengths with zero prior probability: [1]"
        in capsys.readouterr().err
    )


def test_ppl_refuses_model_with_json_feature_keys_exit_1(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    manifest["feature_keys"] = []
    write_container(model_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "%s stores its feature keys as a JSON list" % model_out in capsys.readouterr().err


def test_ppl_model_without_a_manifest_key_exit_1_names_file_and_key(
    tmp_path, tiny_corpus, capsys
):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    del manifest["vocab"]
    write_container(model_out, manifest, arrays)  # a valid checksum over it
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s lacks the manifest key 'vocab'" % model_out in capsys.readouterr().err


def test_ppl_neural_model_without_a_phi_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys
):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "neural")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    del arrays["phi.fwd0_U"]
    write_container(model_out, manifest, arrays)  # a valid checksum over it
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s lacks the arrays phi.fwd0_U\n" % model_out in capsys.readouterr().err


def test_sample_noise_file_without_an_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys
):
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out])
    assert _run(argv) == 0
    manifest, arrays = read_container(noise_out)
    del arrays["mu.emb"]
    write_container(noise_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["sample", noise_out, "--count", 5, "--seed", 3]) == 1
    assert "error: %s lacks the array 'mu.emb'" % noise_out in capsys.readouterr().err


def _narrow(a):
    """a without its last column."""
    return a[..., :-1]


@pytest.mark.parametrize(
    "mode, name, edit",
    [
        ("neural", "phi.fwd0_U", _narrow),
        ("neural", "phi.emb", lambda a: a[:-1]),
        ("discrete", "lam", _narrow),
        ("discrete", "zeta", lambda a: a[None]),
    ],
    ids=["phi-U-narrow", "phi-emb-short", "lam-short", "zeta-2d"],
)
def test_ppl_model_with_a_misshapen_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys, mode, name, edit
):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, mode)
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    shape = arrays[name].shape
    arrays[name] = edit(arrays[name])
    write_container(model_out, manifest, arrays)  # a valid checksum over it
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s: array %s has shape %s, not %s\n" % (
        model_out, name, arrays[name].shape, shape
    ) in capsys.readouterr().err


def test_ppl_model_with_a_1d_embedding_exit_1_names_file_and_array(tmp_path, tiny_corpus, capsys):
    # a table that is not 2-d gives no width d; the embedding is then checked against d = 1
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "neural")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    V = len(arrays["phi.emb"])
    arrays["phi.emb"] = arrays["phi.emb"][:, 0]
    write_container(model_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s: array phi.emb has shape (%d,), not (%d, 1)\n" % (
        model_out, V, V
    ) in capsys.readouterr().err


def test_ppl_model_without_a_feature_key_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys
):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    del arrays["keys.1"]
    write_container(model_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s lacks the array 'keys.1'\n" % model_out in capsys.readouterr().err


@pytest.mark.parametrize(
    "names, edit",
    [(["mu.U"], lambda a: a[:-1]), (["mu.Wo", "mu.bo"], _narrow), (["pi"], lambda a: a[None])],
    ids=["U-short", "Wo-and-bo-narrower-than-vocab", "pi-2d"],
)
def test_sample_noise_file_with_a_misshapen_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys, names, edit
):
    # narrowing Wo and bo alike keeps the noise LM self-consistent, but not with its vocabulary
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out])
    assert _run(argv) == 0
    manifest, arrays = read_container(noise_out)
    shape = arrays[names[0]].shape
    for name in names:
        arrays[name] = edit(arrays[name])
    write_container(noise_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["sample", noise_out, "--count", 5, "--seed", 3]) == 1
    assert "error: %s: array %s has shape %s, not %s\n" % (
        noise_out, names[0], arrays[names[0]].shape, shape
    ) in capsys.readouterr().err


def test_sample_noise_file_with_the_older_manifest_key_v_loads(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, _ = _train_args(tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out])
    assert _run(argv) == 0
    capsys.readouterr()
    assert _run(["sample", noise_out, "--count", 5, "--seed", 3]) == 0
    expected = capsys.readouterr().out
    manifest, arrays = read_container(noise_out)
    assert "V" not in manifest
    manifest["V"] = len(arrays["mu.bo"])
    write_container(noise_out, manifest, arrays)
    assert _run(["sample", noise_out, "--count", 5, "--seed", 3]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "edit",
    [lambda pi: np.full_like(pi, np.nan), lambda pi: pi * 10, lambda pi: -pi],
    ids=["nan", "times-10", "negated"],
)
@pytest.mark.parametrize("command", ["ppl", "sample"])
def test_file_whose_pi_is_no_probability_vector_exit_1_names_file(
    tmp_path, tiny_corpus, capsys, command, edit
):
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, model_out = _train_args(tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out])
    assert _run(argv) == 0
    path, args = (model_out, [dev]) if command == "ppl" else (noise_out, ["--count", 5])
    manifest, arrays = read_container(path)
    assert arrays["pi"][0] == 0.0  # no one-word sentence: a zero entry is a legal prior
    arrays["pi"] = edit(arrays["pi"])
    write_container(path, manifest, arrays)
    capsys.readouterr()
    assert _run([command, path, *args]) == 1
    assert "error: %s: array pi is not a probability vector" % path in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [lambda c: [x + 100 for x in c], lambda c: [-1] * len(c), lambda c: c[:-1]],
    ids=["shifted-by-100", "all-minus-1", "one-entry-short"],
)
def test_ppl_model_with_a_bad_class_map_exit_1_names_file(
    tmp_path, tiny_corpus, capsys, edit
):
    train, dev = tiny_corpus
    cmap = tmp_path / "classes.txt"
    assert _run(["cluster", train, cmap, "--n-classes", 3]) == 0
    argv, model_out = _train_args(
        tmp_path, train, dev, "discrete", ["templates=w+c:2", "class_map=%s" % cmap]
    )
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    manifest["class_map"] = edit(manifest["class_map"])
    write_container(model_out, manifest, arrays)
    capsys.readouterr()
    assert _run(["ppl", model_out, dev]) == 1
    assert "error: %s: class_map must give each of the" % model_out in capsys.readouterr().err


@pytest.mark.parametrize("kind, name", [("model", "phi.foo"), ("noise", "mu.foo")])
def test_file_with_an_undeclared_array_exit_1_names_file_and_array(
    tmp_path, tiny_corpus, capsys, kind, name
):
    train, dev = tiny_corpus
    noise_out = tmp_path / "noise.trf"
    argv, model_out = _train_args(tmp_path, train, dev, "discrete", ["noise_out=%s" % noise_out])
    assert _run(argv) == 0
    path, argv = (model_out, ["ppl", model_out, dev]) if kind == "model" else (
        noise_out, ["sample", noise_out, "--count", 5]
    )
    manifest, arrays = read_container(path)
    arrays[name] = np.zeros(3)
    write_container(path, manifest, arrays)
    capsys.readouterr()
    assert _run(argv) == 1
    assert "error: %s holds undeclared arrays %s\n" % (path, name) in capsys.readouterr().err


def test_rescore_groups_the_lines_of_an_utterance_wherever_they_are(tmp_path, tiny_corpus, capsys):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.0\tthe cat sat\nu2\t0.0\ta dog\nu1\t0.0\tthe the the\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("u1\tthe cat sat\nu2\ta dog\n")
    capsys.readouterr()
    assert _run(["rescore", nbest, model_out, "--refs", refs]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [l.split("\t")[0] for l in out] == ["u1", "u2", "wer"]
    assert out[-1].split("\t")[2] == "5"  # the reference tokens of u1 and u2, once each


@pytest.mark.parametrize("command", ["ppl", "rescore"])
def test_model_with_fractional_feature_key_exit_1(tmp_path, tiny_corpus, capsys, command):
    train, dev = tiny_corpus
    argv, model_out = _train_args(tmp_path, train, dev, "discrete")
    assert _run(argv) == 0
    manifest, arrays = read_container(model_out)
    arrays["keys.0"] = arrays["keys.0"] + 0.5
    write_container(model_out, manifest, arrays)
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1\t0.0\tthe cat sat\n")
    capsys.readouterr()
    args = [model_out, dev] if command == "ppl" else [nbest, model_out]
    assert _run([command, *args]) == 1
    err = capsys.readouterr().err
    assert "%s: bad feature keys: feature key values must be whole numbers" % model_out in err


def test_oracle_check_passes(capsys):
    assert _run(["oracle-check", "--vocab", 3, "--max-length", 2, "--dim", 2]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_oracle_check_default_output_is_golden(capsys):
    # the lines printed before the check ran in place over named arrays
    assert _run(["oracle-check"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS\tnormalization\tsum=1.000000000000",
        "PASS\tphi-gradient\tmax rel err=2.50e-08",
        "PASS\tdnce-gradient\tmax rel err=6.76e-06",
    ]


def test_oracle_check_guard(capsys):
    assert _run(["oracle-check", "--vocab", 50, "--max-length", 8]) == 2
    capsys.readouterr()


_FUZZ_VALUES = {
    "mode": ["discrete", "neural", "mixed", "bogus", ""],
    "templates": ["w:2", "w:1", "ws:3", "w+c:2", "x:2", "w:x", "w+", ""],
    "cutoffs": ["00", "000", "1", "0a", ""],
    "schedule": ["dev-halving", "per-epoch-halving", "bogus"],
    "vocab_size": ["-1", "0", "1", "2", "50", "x", ""],
    "max_train_length": ["-1", "0", "4", "60", "1.5"],
    "hidden_dim": ["-2", "0", "1", "3"],
    "n_layers": ["0", "1", "2"],
    "noise_dim": ["0", "1", "3", "nan"],
    "alpha": ["0.2", "0.5", "0", "1", "-0.1", "nan", "inf", "x"],
    "nu": ["0.5", "1", "2", "0", "-1", "nan", "inf"],
    "batch_size": ["-1", "0", "1", "4", "2.0"],
    "lr_lambda": ["0.01", "0", "-1", "nan", "inf", "1e999"],
    "lr_theta": ["0.01", "0", "nan", "-inf"],
    "lr_zeta": ["0.01", "0", "nan"],
    "lr_noise": ["0.5", "0", "nan", "inf"],
    "halving_threshold": ["0.001", "0", "-1", "nan", "inf"],
    "stop_ratio": ["0.1", "0", "nan", "-inf"],
    "max_epochs": ["-1", "0", "1", "2"],
    "seed": ["0", "7", "-1", "x"],
    "average_tail": ["-1", "0", "2"],
    "halve_every": ["0", "1", "2"],
    "resume": ["0"],
}


@given(st.dictionaries(st.sampled_from(sorted(_FUZZ_VALUES)), st.just(None)).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.sampled_from(_FUZZ_VALUES[k]) for k in keys})
))
@settings(max_examples=60, deadline=None)
def test_load_config_fuzz_trains_or_config_error(values):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "train.txt").write_text("the cat sat\na dog ran\nthe dog sat here\n" * 4)
        (tmp / "dev.txt").write_text("the cat sat\na dog ran\n")
        lines = [
            "train_corpus=%s" % (tmp / "train.txt"),
            "dev_corpus=%s" % (tmp / "dev.txt"),
            "model_out=%s" % (tmp / "m.trf"),
            "hidden_dim=2",
            "noise_dim=2",
            "max_epochs=1",
        ]
        (tmp / "train.cfg").write_text("\n".join(lines + ["%s=%s" % kv for kv in values.items()]))
        code = _run(["train", "--config", tmp / "train.cfg"])
        event("exit %d" % code)
        assert code in (0, 2)
        assert (code == 0) == (tmp / "m.trf").is_file()
