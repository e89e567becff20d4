"""Hierarchical recurrent sequence labeling for lawsuit-style documents.

A token->sentence->document BiGRU hierarchy jointly trained for token-level
BIO entity tagging (softmax or linear-chain CRF head) and sentence-level
role classification, with a deterministic from-scratch numeric core.

The package root exports what the demos use; the command line lives in
``hierex.cli`` and everything else is imported from its submodule.
"""

from .crf import crf_log_partition, crf_params, crf_score, viterbi
from .data import bio_repairs, gold_spans, span_prf
from .generator import generate_corpus
from .linalg import Rng, glorot_init, logsumexp, sigmoid
from .nn import bigru_backward, bigru_forward, grad_check, gru_cell

__version__ = "0.1.0"

__all__ = [
    "Rng", "bigru_backward", "bigru_forward", "bio_repairs", "crf_log_partition",
    "crf_params", "crf_score", "generate_corpus", "glorot_init", "gold_spans",
    "grad_check", "gru_cell", "logsumexp", "sigmoid", "span_prf", "viterbi",
]
