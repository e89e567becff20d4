"""Hierarchical document model: token -> sentence -> document encoders.

Wiring per document:

  1. token embeddings feed a sentence-level BiGRU, giving token reps
     u[i][t] (2H) and a sentence vector v[i] = [last_fwd ; last_bwd] (2H);
  2. a document-level BiGRU over (v[1]..v[m]) gives doc-contextual sentence
     vectors c[i] (2D);
  3. sentence class logits are an affine map of c[i];
  4. every token's tagging features are [u[i][t] ; c[i]], so document
     context reaches the tagger, not just the classifier;
  5. emissions feed either a per-token softmax or a linear-chain CRF.

The joint loss is tag_nll / total_tokens + lambda_sent * class_ce / m, both
terms per-unit normalized so the weight means the same thing for any
document size. ``ablate_doc_context`` zeroes c[i] out of the token features
(step 4) to let the document level's contribution be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import crf as crf_mod
from .crf import CrfParams
from .linalg import ContractError, Matrix, Rng
from .nn import (BiGruCache, GruCell, ParamTensor, bigru_backward, bigru_forward,
                 embed_backward, embed_forward, gru_cell, param, softmax, softmax_ce,
                 zero_grads)

TAGGER_MODES = ("softmax", "crf")


@dataclass
class HierConfig:
    vocab_size: int
    tag_count: int
    class_count: int
    embed_dim: int = 32
    sent_hidden: int = 32
    doc_hidden: int = 32
    tagger_mode: str = "crf"
    lambda_sent: float = 0.5
    ablate_doc_context: bool = False

    def validate(self) -> None:
        dims = {"vocab_size": self.vocab_size, "tag_count": self.tag_count,
                "class_count": self.class_count, "embed_dim": self.embed_dim,
                "sent_hidden": self.sent_hidden, "doc_hidden": self.doc_hidden}
        for name, v in dims.items():
            if not isinstance(v, int) or v < 1:
                raise ContractError(f"HierConfig.{name} must be an integer >= 1, got {v!r}")
        if self.tagger_mode not in TAGGER_MODES:
            raise ContractError(f"HierConfig.tagger_mode must be one of {TAGGER_MODES}")
        if not (np.isfinite(self.lambda_sent) and self.lambda_sent >= 0.0):
            raise ContractError(f"HierConfig.lambda_sent must be finite and >= 0")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "tag_count": self.tag_count,
            "class_count": self.class_count, "embed_dim": self.embed_dim,
            "sent_hidden": self.sent_hidden, "doc_hidden": self.doc_hidden,
            "tagger_mode": self.tagger_mode, "lambda_sent": self.lambda_sent,
            "ablate_doc_context": self.ablate_doc_context,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HierConfig":
        return cls(**d)


def expected_param_count(cfg: HierConfig) -> int:
    """Closed-form trainable scalar count implied by a config."""
    def gru(inp: int, hid: int) -> int:
        return 3 * (hid * inp + hid * hid + hid)

    e, h, d = cfg.embed_dim, cfg.sent_hidden, cfg.doc_hidden
    k, c = cfg.tag_count, cfg.class_count
    n = cfg.vocab_size * e
    n += 2 * gru(e, h) + 2 * gru(2 * h, d)
    n += k * (2 * h + 2 * d) + k
    n += c * (2 * d) + c
    if cfg.tagger_mode == "crf":
        n += k * k + 2 * k
    return n


@dataclass
class DocForward:
    """Everything forward_document computes, kept for the backward pass.

    The row matrices hold every token of the document in order; ``split``
    cuts one into per-sentence views.
    """

    lengths: list[int]              # tokens per sentence
    token_rows: Matrix              # T x 2H
    sent_vecs: Matrix               # m x 2H
    doc_vecs: Matrix                # m x 2D (the c_i rows)
    class_logits: Matrix            # m x C
    feat_rows: Matrix               # T x (2H+2D)
    emission_rows: Matrix           # T x K
    sent_cache: BiGruCache = field(repr=False)  # its packing also drives the CRF
    doc_cache: BiGruCache = field(repr=False)

    @property
    def starts(self) -> list[int]:
        return list(accumulate(self.lengths[:-1], initial=0))

    def split(self, rows: Matrix) -> list[Matrix]:
        """Per-sentence views of a matrix with one row per token."""
        return np.split(rows, self.starts[1:])


class HierModel:
    """Parameter container plus forward / loss / predict over one document."""

    def __init__(self, cfg: HierConfig, rng: Rng | None):
        cfg.validate()
        self.cfg = cfg
        v, e, h, d = cfg.vocab_size, cfg.embed_dim, cfg.sent_hidden, cfg.doc_hidden
        k, c = cfg.tag_count, cfg.class_count
        self.embedding = param("embed", v, e, rng)
        self.sent_fwd = gru_cell("sent_fwd", e, h, rng)
        self.sent_bwd = gru_cell("sent_bwd", e, h, rng)
        self.doc_fwd = gru_cell("doc_fwd", 2 * h, d, rng)
        self.doc_bwd = gru_cell("doc_bwd", 2 * h, d, rng)
        self.emit_w = param("emit.W", k, 2 * h + 2 * d, rng)
        self.emit_b = param("emit.b", k, 1, None)
        self.cls_w = param("cls.W", c, 2 * d, rng)
        self.cls_b = param("cls.b", c, 1, None)
        self.crf: CrfParams | None = crf_mod.crf_params(k) if cfg.tagger_mode == "crf" else None

    def params(self) -> list[ParamTensor]:
        ps = [self.embedding]
        for cell in (self.sent_fwd, self.sent_bwd, self.doc_fwd, self.doc_bwd):
            ps.extend(cell.params())
        ps.extend([self.emit_w, self.emit_b, self.cls_w, self.cls_b])
        if self.crf is not None:
            ps.extend(self.crf.params())
        return ps

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params())

    def zero_grads(self) -> None:
        zero_grads(self.params())

    # -- forward ------------------------------------------------------------

    def forward_document(self, id_seqs: list[list[int]]) -> DocForward:
        """Encode every sentence of the document in one packed BiGRU batch,
        then the sentence vectors with the document BiGRU (a batch of one)."""
        if not id_seqs:
            raise ContractError("forward_document: empty document")
        for i, ids in enumerate(id_seqs):
            if not ids:
                raise ContractError(f"forward_document: sentence {i} is empty")
        lengths = [len(ids) for ids in id_seqs]
        xs = embed_forward([t for ids in id_seqs for t in ids], self.embedding)
        u, last_f, last_b, sent_cache = bigru_forward(self.sent_fwd, self.sent_bwd, xs, lengths)
        sent_vecs = np.hstack([last_f, last_b])

        doc_vecs, _, _, doc_cache = bigru_forward(self.doc_fwd, self.doc_bwd, sent_vecs,
                                                  [len(id_seqs)])
        class_logits = doc_vecs @ self.cls_w.value.T + self.cls_b.value[:, 0]

        if self.cfg.ablate_doc_context:
            ctx = np.zeros((u.shape[0], doc_vecs.shape[1]))
        else:
            ctx = np.repeat(doc_vecs, lengths, axis=0)
        feats = np.hstack([u, ctx])
        emissions = feats @ self.emit_w.value.T + self.emit_b.value[:, 0]
        return DocForward(lengths, u, sent_vecs, doc_vecs, class_logits, feats, emissions,
                          sent_cache, doc_cache)

    # -- training loss ------------------------------------------------------

    def loss_document(self, id_seqs: list[list[int]], gold_tags: list[list[int]],
                      gold_classes: list[int]) -> float:
        """Joint loss; populates (accumulates into) every parameter grad."""
        if len(gold_tags) != len(id_seqs) or len(gold_classes) != len(id_seqs):
            raise ContractError("loss_document: gold lists must match sentence count")
        for i, (ids, tags) in enumerate(zip(id_seqs, gold_tags)):
            if tags is None or len(tags) != len(ids):
                raise ContractError(f"loss_document: sentence {i} lacks aligned gold tags")
            if gold_classes[i] is None:
                raise ContractError(f"loss_document: sentence {i} lacks a gold class")
        fwd = self.forward_document(id_seqs)
        m = len(id_seqs)
        gold = [t for tags in gold_tags for t in tags]
        inv_tok = 1.0 / len(gold)

        if self.crf is not None:
            tag_nll, d_em = crf_mod.batch_nll_and_grads(
                fwd.emission_rows, gold, fwd.sent_cache.packing, self.crf, scale=inv_tok)
        else:
            tag_nll, d_em = softmax_ce(fwd.emission_rows, gold)
            d_em *= inv_tok
        tag_loss = tag_nll * inv_tok

        class_loss, d_cls_logits = softmax_ce(fwd.class_logits, gold_classes)
        class_loss /= m
        d_cls_logits *= self.cfg.lambda_sent / m

        self._backward(id_seqs, fwd, d_em, d_cls_logits)
        return tag_loss + self.cfg.lambda_sent * class_loss

    def _backward(self, id_seqs: list[list[int]], fwd: DocForward,
                  d_em: Matrix, d_cls_logits: Matrix) -> None:
        h2 = 2 * self.cfg.sent_hidden
        self.emit_w.grad += d_em.T @ fwd.feat_rows
        self.emit_b.grad[:, 0] += d_em.sum(axis=0)
        d_token_reps = d_em @ self.emit_w.value[:, :h2]

        self.cls_w.grad += d_cls_logits.T @ fwd.doc_vecs
        self.cls_b.grad[:, 0] += d_cls_logits.sum(axis=0)
        d_doc_vecs = d_cls_logits @ self.cls_w.value
        if not self.cfg.ablate_doc_context:
            # Every token of sentence i reads c_i, so c_i gets their summed grads.
            d_em_sums = np.vstack([d.sum(axis=0) for d in fwd.split(d_em)])
            d_doc_vecs += d_em_sums @ self.emit_w.value[:, h2:]

        d_sent_vecs = bigru_backward(self.doc_fwd, self.doc_bwd, fwd.doc_cache, d_doc_vecs)
        hdim = self.cfg.sent_hidden
        d_xs = bigru_backward(self.sent_fwd, self.sent_bwd, fwd.sent_cache, d_token_reps,
                              d_last_fwd=d_sent_vecs[:, :hdim],
                              d_last_bwd=d_sent_vecs[:, hdim:])
        embed_backward([t for ids in id_seqs for t in ids], d_xs, self.embedding)

    # -- inference ----------------------------------------------------------

    def predict_document(self, id_seqs: list[list[int]]
                         ) -> tuple[list[list[int]], list[int], Matrix]:
        """Decode tag ids per sentence, class ids, and class probabilities.

        Ties at any argmax break toward the smaller id. Pure function of the
        parameters and input: repeated calls are identical, and a sentence's
        tags do not depend on the other sentences' emissions.
        """
        fwd = self.forward_document(id_seqs)
        if self.crf is not None:
            tags = crf_mod.batch_viterbi(fwd.emission_rows, fwd.sent_cache.packing, self.crf)
        else:
            tags = np.argmax(fwd.emission_rows, axis=1)
        tags = tags.tolist()
        tag_ids = [tags[s: s + n] for s, n in zip(fwd.starts, fwd.lengths)]
        class_ids = [int(i) for i in np.argmax(fwd.class_logits, axis=1)]
        return tag_ids, class_ids, softmax(fwd.class_logits)
