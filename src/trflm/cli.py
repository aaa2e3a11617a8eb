"""Command-line surface: cluster, train, ppl, rescore, sample, oracle-check.

Configs are flat key=value files; any key can be overridden with
``--set key=value`` on the command line. Exit codes: 0 ok, 1 runtime
error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import features as feats
from . import neural
from . import noise as noise_mod
from . import oracle as oracle_mod
from .model import TrfModel, load_noise_model, save_noise_model, zeta_init
from .trainer import DnceConfig, ResumeConfigError, TrainerError, train


class ConfigError(ValueError):
    pass


CONFIG_DEFAULTS = {
    "train_corpus": None,
    "dev_corpus": None,
    "class_map": None,
    "model_out": None,
    "noise_out": None,
    "log_out": None,
    "checkpoint": None,
    "mode": "mixed",  # discrete | neural | mixed
    "templates": "w:3",
    "cutoffs": "000",
    "vocab_size": 10000,
    "max_train_length": 60,
    "hidden_dim": 200,
    "n_layers": 1,
    "noise_dim": 200,
    "resume": 0,
    **{f.name: f.default for f in fields(DnceConfig)},
}

# sizes the trainer's config does not check itself
_SIZE_KEYS = ("vocab_size", "max_train_length", "hidden_dim", "n_layers", "noise_dim")


def load_config(path=None, overrides=()):
    cfg = dict(CONFIG_DEFAULTS)
    pairs = []
    lines = corpus_mod.read_lines(path) if path is not None else ()
    try:
        for lineno, line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value" % (path, lineno))
            k, v = line.split("=", 1)
            pairs.append((k.strip(), v.strip()))
    except corpus_mod.CorpusError as exc:
        raise ConfigError(str(exc)) from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % item)
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v.strip()))
    problems = []
    for k, v in pairs:
        if k not in cfg:
            problems.append("unknown config key %r" % k)
            continue
        kind = type(CONFIG_DEFAULTS[k])
        try:
            cfg[k] = kind(v) if kind in (int, float) else v or None
        except ValueError:
            problems.append("bad value for %r: %r" % (k, v))
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def cmd_cluster(args):
    lines = [line for _, line in corpus_mod.read_lines(args.corpus)]
    vocab = corpus_mod.build_vocab(lines, args.vocab_size)
    if args.n_classes > vocab.size:
        raise ConfigError(
            "n_classes (%d) exceeds vocabulary size (%d)" % (args.n_classes, vocab.size)
        )
    sentences = [corpus_mod.encode(line, vocab) for line in lines]
    cmap = corpus_mod.cluster_words(
        sentences, vocab, args.n_classes, max_iters=args.max_iters, seed=args.seed
    )
    cmap.save(args.out, vocab)
    print("clustered\t%d words\t%d classes\t%s" % (vocab.size, cmap.n_classes, args.out))
    return 0


def _validate_train_config(cfg) -> DnceConfig:
    """Check the train config and build the trainer's part of it, before
    any file is read."""
    problems = []
    required = ["train_corpus", "dev_corpus", "model_out"]
    discrete = cfg["mode"] in ("discrete", "mixed")
    if discrete:
        required += ["templates", "cutoffs"]
    for key in required:
        if not cfg.get(key):
            problems.append("missing required config key %r" % key)
    for key in _SIZE_KEYS:
        if cfg[key] < 1:
            problems.append("%s must be >= 1" % key)
    if cfg["resume"] not in (0, 1):
        problems.append("resume must be 0 or 1")
    elif cfg["resume"] and not cfg.get("checkpoint"):
        problems.append("resume = 1 needs a checkpoint")
    elif cfg["resume"] and not os.path.isfile(cfg["checkpoint"]):
        problems.append("resume = 1: checkpoint %r is not a file" % cfg["checkpoint"])
    written = {}
    for key in ("model_out", "noise_out", "log_out", "checkpoint"):
        folder = os.path.dirname(cfg[key] or "") or "."
        if not os.path.isdir(folder):
            problems.append("%s: directory %r does not exist" % (key, folder))
        elif cfg[key]:
            first = written.setdefault(os.path.realpath(cfg[key]), key)
            if first != key:
                problems.append("%s and %s name the same file %r" % (first, key, cfg[key]))
    if cfg["mode"] not in ("discrete", "neural", "mixed"):
        problems.append("mode must be discrete, neural, or mixed")
    if discrete and cfg["templates"] and cfg["cutoffs"]:
        try:
            tset = feats.compile_templates(
                cfg["templates"], class_map_present=bool(cfg.get("class_map"))
            )
            feats.checked_cutoffs(tset, cfg["cutoffs"])
        except feats.FeatureError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    try:
        return DnceConfig(**{f.name: cfg[f.name] for f in fields(DnceConfig)})
    except TrainerError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(args):
    cfg = load_config(args.config, args.set or [])
    dcfg = _validate_train_config(cfg)
    # one pass over the file serves the vocabulary and the encoding
    lines = [line for _, line in corpus_mod.read_lines(cfg["train_corpus"])]
    vocab = corpus_mod.build_vocab(lines, cfg["vocab_size"])
    train_sents = corpus_mod.encode_lines(lines, vocab, max_length=cfg["max_train_length"])
    if not train_sents:
        raise corpus_mod.CorpusError(
            "%s: no sentence is as short as max_train_length=%d"
            % (cfg["train_corpus"], cfg["max_train_length"])
        )
    L = max(len(s) for s in train_sents)
    prior = corpus_mod.length_prior(train_sents, L)
    dev_sents = [
        s
        for s in corpus_mod.read_corpus(cfg["dev_corpus"], vocab, max_length=L)
        if prior.prob(len(s)) > 0
    ]
    if not dev_sents:
        raise corpus_mod.CorpusError(
            "%s: no sentence has a length seen in training (1..%d)" % (cfg["dev_corpus"], L)
        )

    class_map = None
    if cfg.get("class_map"):
        class_map = corpus_mod.ClassMap.load(cfg["class_map"], vocab)

    feature_index = None
    lam = None
    if cfg["mode"] in ("discrete", "mixed"):
        tset = feats.compile_templates(
            cfg["templates"], class_map_present=class_map is not None
        )
        feature_index = feats.build_feature_index(
            train_sents, tset, cfg["cutoffs"], class_map=class_map
        )
        lam = np.zeros(feature_index.n_features)
    phi_params = None
    if cfg["mode"] in ("neural", "mixed"):
        phi_params = neural.init_phi_params(
            vocab.size, cfg["hidden_dim"], n_layers=cfg["n_layers"], seed=cfg["seed"]
        )
    model = TrfModel(
        vocab,
        prior,
        zeta_init(vocab.size, L),
        feature_index=feature_index,
        lam=lam,
        phi_params=phi_params,
        class_map=class_map,
        template_spec=cfg["templates"] if cfg["mode"] != "neural" else "",
    )
    noise = noise_mod.init_noise_model(vocab.size, cfg["noise_dim"], prior, seed=cfg["seed"])

    log_sink = open(cfg["log_out"], "a") if cfg.get("log_out") else sys.stderr
    try:
        train(
            dcfg,
            train_sents,
            dev_sents,
            model,
            noise,
            log_sink=log_sink,
            checkpoint_path=cfg.get("checkpoint"),
            resume=bool(cfg["resume"]),
        )
    finally:
        if cfg.get("log_out"):
            log_sink.close()
    model.save(cfg["model_out"])
    if cfg.get("noise_out"):
        save_noise_model(noise, vocab, cfg["noise_out"])
    print("trained\t%s" % cfg["model_out"])
    return 0


def cmd_ppl(args):
    model = TrfModel.load(args.model)
    sents = corpus_mod.read_corpus(args.corpus, model.vocab)
    ppl = eval_mod.perplexity(model, sents)
    print("# joint-probability perplexity; not comparable to conditional-LM PPL")
    print("ppl\t%.6f\t%d sentences" % (ppl, len(sents)))
    return 0


def cmd_rescore(args):
    models = [TrfModel.load(p) for p in args.models]
    scorers = eval_mod.ScorerSet.equal_weights([eval_mod.model_scorer(m) for m in models])
    nbest = eval_mod.read_nbest(args.nbest)
    refs = eval_mod.read_refs(args.refs) if args.refs else None
    selections, report = eval_mod.rescore_corpus(
        nbest, scorers, lm_weight=args.lm_weight, refs=refs
    )
    for utt, idx, score, _tokens in selections:
        print("%s\t%d\t%.6f" % (utt, idx, score))
    if report is not None:
        err, ref_len, rate = report
        print("wer\t%d\t%d\t%.6f" % (err, ref_len, rate))
    return 0


def cmd_sample(args):
    noise, vocab = load_noise_model(args.noise)
    rng = np.random.default_rng(args.seed)
    for s in noise_mod.sample(noise, args.count, rng)[0]:
        print(corpus_mod.decode(s, vocab))
    return 0


def cmd_oracle_check(args):
    try:
        rows = oracle_mod.self_check(args.vocab, args.max_length, args.dim, args.seed)
    except oracle_mod.OracleError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    for name, ok, detail in rows:
        print("%s\t%s\t%s" % ("PASS" if ok else "FAIL", name, detail))
    return 0 if all(ok for _, ok, _ in rows) else 1


def non_negative_int(text, least=0):
    if int(text) < least:
        raise argparse.ArgumentTypeError("must be >= %d, got %s" % (least, text))
    return int(text)


def positive_int(text):
    return non_negative_int(text, 1)


def finite_float(text):
    if not np.isfinite(float(text)):
        raise argparse.ArgumentTypeError("must be a finite number, got %s" % text)
    return float(text)


def build_parser():
    parser = argparse.ArgumentParser(prog="trflm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="exchange-cluster the vocabulary into classes")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--n-classes", type=positive_int, required=True)
    p.add_argument("--vocab-size", type=positive_int, default=10000)
    p.add_argument("--max-iters", type=positive_int, default=20)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train a TRF model with DNCE")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ppl", help="perplexity of a corpus under a model")
    p.add_argument("model")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("rescore", help="rescore an N-best list")
    p.add_argument("nbest")
    p.add_argument("models", nargs="+")
    p.add_argument("--refs")
    p.add_argument("--lm-weight", type=finite_float, default=1.0)
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("sample", help="sample sentences from a noise model")
    p.add_argument("noise")
    p.add_argument("--count", type=non_negative_int, default=10)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle-check", help="run exact-enumeration property checks")
    p.add_argument("--vocab", type=positive_int, default=3)
    p.add_argument("--max-length", type=positive_int, default=3)
    p.add_argument("--dim", type=positive_int, default=3)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ResumeConfigError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures surface as exit code 1
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
