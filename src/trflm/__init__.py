"""Mixed-feature trans-dimensional random field language models.

Per-length globally normalized sentence models whose potential is a
linear term over discrete n-gram features plus a nonlinear recurrent
term, trained by dynamic noise-contrastive estimation against a jointly
trained recurrent noise LM.
"""
