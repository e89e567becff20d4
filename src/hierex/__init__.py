"""Hierarchical recurrent sequence labeling for lawsuit-style documents.

A token->sentence->document BiGRU hierarchy jointly trained for token-level
BIO entity tagging (softmax or linear-chain CRF head) and sentence-level
role classification, with a deterministic from-scratch numeric core.
"""

from .crf import CrfParams, crf_log_partition, crf_nll_and_grads, crf_params, crf_score, viterbi
from .data import (CLASS_NAMES, ENTITY_TYPES, Document, ParseError, Sentence,
                   SpanPrf, TagSpan, Vocab, bio_decode, bio_encode, bio_repairs,
                   build_class_map, build_tag_map, build_vocab, encode_corpus,
                   gold_spans, load_corpus, save_corpus, span_prf,
                   split_sentences, tokenize)
from .generator import generate_corpus, generate_document
from .hier_model import DocForward, HierConfig, HierModel, expected_param_count
from .linalg import ContractError, Rng, ShapeError, glorot_init, logsumexp, matmul, sigmoid
from .nn import (GradCheckReport, GruCell, ParamTensor, bigru_backward, bigru_forward,
                 grad_check, gru_cell, gru_step, gru_step_backward, param, softmax,
                 softmax_ce, zero_grads)
from .train_eval import (Adam, CheckpointError, EvalReport, NumericError, TrainConfig,
                         TrainResult, clip_global, evaluate, load_checkpoint,
                         save_checkpoint, snapshot_params, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "CLASS_NAMES", "CheckpointError", "ContractError", "CrfParams",
    "DocForward", "Document", "ENTITY_TYPES", "EvalReport", "GradCheckReport",
    "GruCell", "HierConfig", "HierModel", "NumericError", "ParamTensor",
    "ParseError", "Rng", "Sentence", "ShapeError", "SpanPrf", "TagSpan",
    "TrainConfig", "TrainResult", "Vocab", "bigru_backward", "bigru_forward",
    "bio_decode", "bio_encode", "bio_repairs", "build_class_map", "build_tag_map",
    "build_vocab", "clip_global", "crf_log_partition", "crf_nll_and_grads",
    "crf_params", "crf_score", "encode_corpus", "evaluate", "expected_param_count",
    "generate_corpus", "generate_document", "glorot_init", "gold_spans",
    "grad_check", "gru_cell", "gru_step", "gru_step_backward", "load_checkpoint",
    "load_corpus", "logsumexp", "matmul", "param",
    "save_checkpoint", "save_corpus", "sigmoid", "snapshot_params", "softmax",
    "softmax_ce", "span_prf", "split_sentences", "tokenize", "train",
    "viterbi", "zero_grads",
]
