"""Mixed-feature trans-dimensional random field language models.

Per-length globally normalized sentence models whose potential is a
linear term over discrete n-gram features plus a nonlinear recurrent
term, trained by dynamic noise-contrastive estimation against a jointly
trained recurrent noise LM.
"""

from .corpus import (
    ClassMap,
    LengthPrior,
    Vocabulary,
    build_vocab,
    cluster_words,
    encode,
    length_prior,
)
from .features import build_feature_index, compile_templates, extract, linear_potential
from .model import TrfModel, zeta_init
from .noise import NoiseModel, init_noise_model, noise_train_step, sample
from .trainer import DnceConfig, grad_estimate, minibatch_sizes, posterior_c0, train

__all__ = [
    "ClassMap",
    "DnceConfig",
    "LengthPrior",
    "NoiseModel",
    "TrfModel",
    "Vocabulary",
    "build_feature_index",
    "build_vocab",
    "cluster_words",
    "compile_templates",
    "encode",
    "extract",
    "grad_estimate",
    "init_noise_model",
    "length_prior",
    "linear_potential",
    "minibatch_sizes",
    "noise_train_step",
    "posterior_c0",
    "sample",
    "train",
    "zeta_init",
]

__version__ = "0.1.0"
