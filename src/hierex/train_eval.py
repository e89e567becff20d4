"""Training loop, metrics, and bit-exact checkpoint files.

Training runs one document at a time, summing gradients over ``batch_docs``
documents before one clipped Adam step. Model selection is by dev micro
span-F1 with earlier-epoch ties; an empty dev set falls back to the final
epoch. Everything downstream of (seed, data, config) is deterministic, so
two identical runs produce byte-identical history and checkpoint files.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import Document, SpanPrf, Vocab, bio_decode, is_bio_tag, span_prf
from .hier_model import HierConfig, HierModel
from .linalg import ContractError, Rng
from .nn import ParamTensor


class NumericError(RuntimeError):
    """Non-finite value met during optimization."""


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    batch_docs: int = 8
    max_epochs: int = 100
    patience: int = 5
    seed: int = 1

    def validate(self) -> None:
        # clip_norm may be inf (no clipping); lr and adam_eps may not.
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ContractError(f"TrainConfig.lr must be finite and > 0, got {self.lr!r}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ContractError(f"TrainConfig.{name} must lie in [0, 1), got {b!r}")
        if not (self.adam_eps > 0 and math.isfinite(self.adam_eps)):
            raise ContractError(f"TrainConfig.adam_eps must be finite and > 0, "
                                f"got {self.adam_eps!r}")
        if not self.clip_norm > 0:
            raise ContractError("TrainConfig.clip_norm must be > 0")
        if self.batch_docs < 1:
            raise ContractError("TrainConfig.batch_docs must be >= 1")
        if self.max_epochs < 1:
            raise ContractError("TrainConfig.max_epochs must be >= 1")
        if self.patience < 1:
            raise ContractError("TrainConfig.patience must be >= 1")


class Adam:
    """Adam with bias correction over a fixed parameter list.

    The step counter advances once per optimizer step, however many
    documents contributed gradient. Gradients are zeroed after each step.
    """

    def __init__(self, params: list[ParamTensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                r, c = np.argwhere(~np.isfinite(g))[0]
                raise NumericError(f"non-finite gradient in {p.name} at ({r}, {c})")
            m, v = self.m[i], self.v[i]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            p.value -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
            p.grad[...] = 0.0


def clip_global(params: list[ParamTensor], clip_norm: float) -> tuple[float, float]:
    """Scale all grads so their joint L2 norm is at most clip_norm.

    Returns the factor applied (1.0 when no clipping happened) and the
    joint norm before clipping. Never increases any gradient magnitude.
    """
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return 1.0, norm
    factor = clip_norm / norm
    for p in params:
        p.grad *= factor
    return factor, norm


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    token_acc: float
    span: SpanPrf
    class_acc: float
    docs: int

    def to_json_dict(self) -> dict:
        def prf(s) -> dict:
            return {"p": s.precision, "r": s.recall, "f1": s.f1}

        return {
            "token_acc": self.token_acc,
            "span": {"micro": prf(self.span.micro),
                     "per_label": {lab: prf(s) for lab, s in self.span.per_label.items()}},
            "class_acc": self.class_acc,
            "docs": self.docs,
        }


def evaluate(model, docs: list[Document], tag_map: list[str]) -> EvalReport:
    """Token accuracy, exact-match span P/R/F1, and sentence-class accuracy.

    Documents must carry encoded ids (token_ids, tag_ids, class_id). The
    result is invariant to document order: only pooled counts matter.
    """
    if not docs:
        raise ContractError("evaluate: empty corpus")
    tok_correct = tok_total = 0
    cls_correct = cls_total = 0
    pred_spans, gold_spans = [], []
    for doc in docs:
        for i, sent in enumerate(doc.sentences):
            if sent.token_ids is None or sent.tag_ids is None or sent.class_id is None:
                raise ContractError(f"evaluate: doc {doc.doc_id} sentence {i} is not encoded")
        id_seqs = [s.token_ids for s in doc.sentences]
        tag_paths, class_ids, _ = model.predict_document(id_seqs)
        for i, sent in enumerate(doc.sentences):
            path = tag_paths[i]
            tok_correct += sum(int(p == g) for p, g in zip(path, sent.tag_ids))
            tok_total += len(path)
            pred_spans.append(bio_decode([tag_map[t] for t in path]))
            gold_spans.append(bio_decode([tag_map[t] for t in sent.tag_ids]))
            cls_correct += int(class_ids[i] == sent.class_id)
            cls_total += 1
    return EvalReport(tok_correct / tok_total, span_prf(pred_spans, gold_spans),
                      cls_correct / cls_total, len(docs))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_dev_f1: float | None


def snapshot_params(model: HierModel) -> list[np.ndarray]:
    return [p.value.copy() for p in model.params()]


def restore_params(model: HierModel, snap: list[np.ndarray]) -> None:
    for p, val in zip(model.params(), snap):
        p.value[...] = val


def train(model: HierModel, train_docs: list[Document], dev_docs: list[Document],
          cfg: TrainConfig, tag_map: list[str], on_epoch=None) -> TrainResult:
    """Fit the model in place; returns per-epoch history and the selection.

    With a nonempty dev set the model is left at the best-dev-F1 epoch
    (ties go to the earlier epoch) and training stops after ``patience``
    epochs without improvement. With an empty dev set it runs to
    max_epochs and keeps the final parameters. ``on_epoch``, when given,
    is called with each finished epoch's history row.
    """
    cfg.validate()
    if not train_docs:
        raise ContractError("train: empty training set")
    rng = Rng(cfg.seed)
    opt = Adam(model.params(), cfg)
    model.zero_grads()
    history: list[dict] = []
    if not dev_docs:
        history.append({"warning": "empty dev set; the final epoch will be selected"})
    best_f1: float | None = None
    best_epoch = 0
    best_snap: list[np.ndarray] | None = None
    stale = 0
    order = list(range(len(train_docs)))
    last_epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        last_epoch = epoch
        rng.shuffle(order)
        total_loss = 0.0
        clip_factors: list[float] = []
        grad_norms: list[float] = []
        for lo in range(0, len(order), cfg.batch_docs):
            for j in order[lo: lo + cfg.batch_docs]:
                doc = train_docs[j]
                loss = model.loss_document([s.token_ids for s in doc.sentences],
                                           [s.tag_ids for s in doc.sentences],
                                           [s.class_id for s in doc.sentences])
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, doc {doc.doc_id}")
                total_loss += loss
            factor, norm = clip_global(model.params(), cfg.clip_norm)
            clip_factors.append(factor)
            grad_norms.append(norm)
            opt.step()
        row = {"epoch": epoch, "train_loss": total_loss / len(train_docs),
               "dev_f1": None, "dev_class_acc": None, "clip_factors": clip_factors,
               "grad_norms": grad_norms}
        if dev_docs:
            rep = evaluate(model, dev_docs, tag_map)
            row["dev_f1"] = rep.span.micro.f1
            row["dev_class_acc"] = rep.class_acc
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if not dev_docs:
            continue
        if best_f1 is None or row["dev_f1"] > best_f1:
            best_f1 = row["dev_f1"]
            best_epoch = epoch
            best_snap = snapshot_params(model)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best_snap is not None:
        restore_params(model, best_snap)
        return TrainResult(history, best_epoch, best_f1)
    return TrainResult(history, last_epoch, None)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"HRNN"
CHECKPOINT_VERSION = 3


def save_checkpoint(path: str, model: HierModel, vocab: Vocab,
                    tag_map: list[str], class_map: list[str]) -> None:
    """Little-endian binary: magic, u32 version, u32 metadata length, JSON
    metadata (config, vocab, tag map, class map), u32 tensor count, then per
    tensor: u16 name length, name, u32 rows, u32 cols, float64 row-major data.
    """
    meta = {"config": asdict(model.cfg), "vocab": vocab.id_to_token,
            "tag_map": tag_map, "class_map": class_map}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    params = model.params()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name_bytes = p.name.encode("utf-8")
            f.write(struct.pack("<H", len(name_bytes)))
            f.write(name_bytes)
            rows, cols = p.value.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


# Each metadata list: the config field giving its length, and what its
# entries must be.
_META_LISTS = (("vocab", "vocab_size", "a string", lambda e: isinstance(e, str)),
               ("tag_map", "tag_count", "a BIO tag", is_bio_tag),
               ("class_map", "class_count", "a nonempty string",
                lambda e: isinstance(e, str) and e != ""))


def load_checkpoint(path: str) -> tuple[HierModel, Vocab, list[str], list[str]]:
    """Inverse of save_checkpoint; bit-exact. Raises CheckpointError naming
    what is wrong (bad magic, version, truncation, trailing bytes, missing
    or misshapen tensors, a config with a missing, unknown or ill-typed
    field, or a vocab, tag map or class map whose length disagrees with the
    config, or that holds a repeated entry or one of the wrong kind: vocab
    entries are strings, tag map entries BIO tags and class map entries
    nonempty strings).
    """
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"truncated checkpoint: expected {n} bytes for {what} "
                                  f"at offset {pos}, file has {len(data)}")
        out = data[pos: pos + n]
        pos += n
        return out

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a model checkpoint")
    version, meta_len = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        meta = json.loads(take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint metadata: {e}") from None
    for key in ("config", "vocab", "tag_map", "class_map"):
        if key not in meta:
            raise CheckpointError(f"checkpoint metadata lacks {key!r}")
    try:
        cfg = HierConfig(**meta["config"])
        cfg.validate()
    except (TypeError, ContractError) as e:
        raise CheckpointError(f"bad checkpoint config: {e}") from None
    model = HierModel(cfg, rng=None)
    for key, size_field, kind, valid in _META_LISTS:
        entries, size = meta[key], getattr(cfg, size_field)
        if not isinstance(entries, list) or len(entries) != size:
            found = f"{len(entries)} entries" if isinstance(entries, list) else "no list"
            raise CheckpointError(f"checkpoint {key} has {found}, "
                                  f"config {size_field} is {size}")
        for i, entry in enumerate(entries):
            if not valid(entry):
                raise CheckpointError(f"checkpoint {key} has {entry!r} at index {i}, "
                                      f"not {kind}")
        if len(set(entries)) != size:
            raise CheckpointError(f"checkpoint {key} has repeated entries")

    (tensor_count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(tensor_count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        name = take(name_len, "tensor name").decode("utf-8")
        rows, cols = struct.unpack("<II", take(8, f"shape of {name}"))
        raw = take(rows * cols * 8, f"data of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).astype(np.float64)
    if pos != len(data):
        raise CheckpointError(f"trailing bytes: {len(data) - pos} past the last tensor")

    for p in model.params():
        if p.name not in tensors:
            raise CheckpointError(f"checkpoint lacks tensor {p.name!r}")
        val = tensors.pop(p.name)
        if val.shape != p.value.shape:
            raise CheckpointError(f"tensor {p.name!r} has shape {val.shape}, "
                                  f"config implies {p.value.shape}")
        p.value[...] = val
    if tensors:
        extra = sorted(tensors)
        raise CheckpointError(f"checkpoint has unexpected tensors: {extra}")
    return model, Vocab(list(meta["vocab"])), list(meta["tag_map"]), list(meta["class_map"])
