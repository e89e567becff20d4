"""Hierarchical document model: token -> sentence -> document encoders.

Wiring per document:

  1. token embeddings feed a sentence-level BiGRU, giving token reps
     u[i][t] (2H) and a sentence vector v[i] = [last_fwd ; last_bwd] (2H);
  2. a document-level BiGRU over (v[1]..v[m]) gives doc-contextual sentence
     vectors c[i] (2D);
  3. sentence class logits are an affine map of c[i];
  4. a token's emissions are the affine map W [u[i][t] ; c[i]] + b of its
     tagging features, computed as a token term W_u u[i][t] + b plus a
     context term W_c c[i] taken once per sentence and shared by its
     tokens, so document context reaches the tagger, not just the
     classifier;
  5. emissions feed either a per-token softmax or a linear-chain CRF.

The joint loss is tag_nll / total_tokens + lambda_sent * class_ce / m, both
terms per-unit normalized so the weight means the same thing for any
document size. ``ablate_doc_context`` drops the context term (step 4) to
let the document level's contribution be measured.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import crf as crf_mod
from .crf import CrfParams
from .linalg import ContractError, Matrix, Rng
from .nn import (BiGruCache, ParamTensor, bigru, bigru_backward, bigru_forward,
                 embed_backward, embed_forward, param, softmax, softmax_ce, zero_grads)

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
        for name in ("vocab_size", "tag_count", "class_count", "embed_dim",
                     "sent_hidden", "doc_hidden"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ContractError(f"HierConfig.{name} must be an integer >= 1, got {v!r}")
        if self.tagger_mode not in TAGGER_MODES:
            raise ContractError(f"HierConfig.tagger_mode must be one of {TAGGER_MODES}")
        lam = self.lambda_sent
        if (isinstance(lam, bool) or not isinstance(lam, numbers.Real)
                or not (np.isfinite(lam) and lam >= 0.0)):
            raise ContractError(f"HierConfig.lambda_sent must be a finite number >= 0, "
                                f"got {lam!r}")
        if not isinstance(self.ablate_doc_context, bool):
            raise ContractError(f"HierConfig.ablate_doc_context must be a bool, "
                                f"got {self.ablate_doc_context!r}")


def expected_param_count(cfg: HierConfig) -> int:
    """Closed-form trainable scalar count implied by a config."""
    def bigru_size(inp: int, hid: int) -> int:
        return 2 * 3 * (hid * inp + hid * hid + hid)

    e, h, d = cfg.embed_dim, cfg.sent_hidden, cfg.doc_hidden
    k, c = cfg.tag_count, cfg.class_count
    n = cfg.vocab_size * e
    n += bigru_size(e, h) + bigru_size(2 * h, d)
    n += k * (2 * h + 2 * d) + k
    n += c * (2 * d) + c
    if cfg.tagger_mode == "crf":
        n += k * k + 2 * k
    return n


@dataclass
class DocForward:
    """What forward_document computes that the backward pass or decoding
    reads. The row matrices hold every token of the document in order;
    ``sent_cache.packing`` holds each sentence's length and first row, and
    ``doc_cache.xs`` the sentence vectors v_i."""

    token_rows: Matrix              # T x 2H (the u rows)
    doc_vecs: Matrix                # m x 2D (the c_i rows)
    class_logits: Matrix            # m x C
    emission_rows: Matrix           # T x K
    sent_cache: BiGruCache = field(repr=False)  # its packing also drives the CRF
    doc_cache: BiGruCache = field(repr=False)


class HierModel:
    """Parameter container plus forward / loss / predict over one document."""

    def __init__(self, cfg: HierConfig, rng: Rng | None):
        cfg.validate()
        self.cfg = cfg
        v, e, h, d = cfg.vocab_size, cfg.embed_dim, cfg.sent_hidden, cfg.doc_hidden
        k, c = cfg.tag_count, cfg.class_count
        self.embedding = param("embed", v, e, rng)
        self.sent_gru = bigru("sent_gru", e, h, rng)
        self.doc_gru = bigru("doc_gru", 2 * h, d, rng)
        self.emit_w = param("emit.W", k, 2 * h + 2 * d, rng)
        self.emit_b = param("emit.b", k, 1, None)
        self.cls_w = param("cls.W", c, 2 * d, rng)
        self.cls_b = param("cls.b", c, 1, None)
        self.crf: CrfParams | None = crf_mod.crf_params(k) if cfg.tagger_mode == "crf" else None

    def params(self) -> list[ParamTensor]:
        ps = [self.embedding, *self.sent_gru.params(), *self.doc_gru.params(),
              self.emit_w, self.emit_b, self.cls_w, self.cls_b]
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
        xs = embed_forward([t for ids in id_seqs for t in ids], self.embedding)
        u, sent_vecs, sent_cache = bigru_forward(self.sent_gru, xs,
                                                 [len(ids) for ids in id_seqs])
        doc_vecs, _, doc_cache = bigru_forward(self.doc_gru, sent_vecs, [len(id_seqs)])
        class_logits = doc_vecs @ self.cls_w.value.T + self.cls_b.value[:, 0]

        h2, w = 2 * self.cfg.sent_hidden, self.emit_w.value
        emissions = u @ w[:, :h2].T + self.emit_b.value[:, 0]
        if not self.cfg.ablate_doc_context:
            # Every token of sentence i adds the same W_c c_i.
            emissions += np.repeat(doc_vecs @ w[:, h2:].T, sent_cache.packing.lengths, axis=0)
        return DocForward(u, doc_vecs, class_logits, emissions, sent_cache, doc_cache)

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
        h2, w = 2 * self.cfg.sent_hidden, self.emit_w.value
        self.emit_w.grad[:, :h2] += d_em.T @ fwd.token_rows
        self.emit_b.grad[:, 0] += d_em.sum(axis=0)
        d_token_reps = d_em @ w[:, :h2]

        self.cls_w.grad += d_cls_logits.T @ fwd.doc_vecs
        self.cls_b.grad[:, 0] += d_cls_logits.sum(axis=0)
        d_doc_vecs = d_cls_logits @ self.cls_w.value
        if not self.cfg.ablate_doc_context:
            # Every token of sentence i reads c_i, so c_i gets their summed grads.
            d_em_sums = np.add.reduceat(d_em, fwd.sent_cache.packing.starts, axis=0)
            self.emit_w.grad[:, h2:] += d_em_sums.T @ fwd.doc_vecs
            d_doc_vecs += d_em_sums @ w[:, h2:]

        d_sent_vecs = bigru_backward(self.doc_gru, fwd.doc_cache, d_doc_vecs)
        d_xs = bigru_backward(self.sent_gru, fwd.sent_cache, d_token_reps, d_last=d_sent_vecs)
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
        tag_ids = [t.tolist() for t in np.split(tags, fwd.sent_cache.packing.starts[1:])]
        class_ids = [int(i) for i in np.argmax(fwd.class_logits, axis=1)]
        return tag_ids, class_ids, softmax(fwd.class_logits)
