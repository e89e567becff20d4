"""Spans around hierex's layers, recorded from outside the program.

Each layer function is replaced, for the length of one traced round, by a
wrapper installed at the name its caller looks it up by. A wrapper records
a span (name, start, end, parent) and per-name totals: time, self time
(time minus that of wrapped spans inside it), calls and work counts. A
name that no longer exists is reported as absent rather than failing.
The layers run on one thread at a time, so one span stack serves.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


def _cell_part(cell) -> str:
    """'sent' or 'doc', from the prefix of the cell's parameter names."""
    try:
        return cell.params()[0].name.split("_", 1)[0]
    except (AttributeError, IndexError):
        return "unknown"


def targets(hx) -> list[tuple]:
    """(owner, attribute, span name, part, counts) for every wrapped layer.

    ``hx`` maps module names to the imported hierex modules. ``part`` maps
    the call's arguments to a sub-name; ``counts`` maps the arguments and
    the result to extra quantities to add up.
    """
    nn, crf, hm, te, cli = hx["nn"], hx["crf"], hx["hier_model"], hx["train_eval"], hx["cli"]
    model, adam = getattr(hm, "HierModel", None), getattr(te, "Adam", None)
    return [
        (nn, "gru_sequence", "nn.gru_sequence", lambda a, k: _cell_part(a[0]),
         lambda a, k, r: {"steps": a[1].shape[0]}),
        (nn, "gru_sequence_backward", "nn.gru_sequence_backward",
         lambda a, k: _cell_part(a[0]), lambda a, k, r: {"steps": a[2].shape[0]}),
        (hm, "embed_forward", "nn.embed_forward", None, None),
        (hm, "embed_backward", "nn.embed_backward", None, None),
        (crf, "crf_nll_and_grads", "crf.crf_nll_and_grads", None,
         lambda a, k, r: {"tokens": a[0].shape[0]}),
        (hm, "viterbi", "crf.viterbi", None, lambda a, k, r: {"tokens": a[0].shape[0]}),
        (model, "loss_document", "hier_model.loss_document", None,
         lambda a, k, r: {"docs": 1}),
        (model, "predict_document", "hier_model.predict_document", None,
         lambda a, k, r: {"docs": 1}),
        (te, "clip_global", "train_eval.clip_global", None, None),
        (adam, "step", "train_eval.Adam.step", None, None),
        # train() reaches evaluate through train_eval, the CLI through its own import.
        (te, "evaluate", "train_eval.evaluate", None, lambda a, k, r: {"docs": len(a[1])}),
        (cli, "evaluate", "train_eval.evaluate", None, lambda a, k, r: {"docs": len(a[1])}),
        (cli, "save_checkpoint", "train_eval.save_checkpoint", None,
         lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
        (cli, "load_checkpoint", "train_eval.load_checkpoint", None, None),
        (cli, "load_corpus", "data.load_corpus", None, None),
        (cli, "encode_corpus", "data.encode_corpus", None, None),
        (cli, "cmd_extract", "cli.cmd_extract",
         lambda a, k: "stream" if a[0].input == "-" else "file", None),
    ]


class Tracer:
    """Installs wrappers on enter, removes them on exit."""

    def __init__(self, hx: dict):
        self.hx = hx
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str, part, counts):
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.absent.append(name)
            return
        stats, spans, stack = self.stats, self.spans, self._stack

        def wrapper(*a, **k):
            key = f"{name}.{part(a, k)}" if part else name
            parent = stack[-1][0] if stack else -1
            stack.append([len(spans), 0.0])
            spans.append((key, 0.0, 0.0, parent))
            start = time.perf_counter()
            try:
                result = orig(*a, **k)
            finally:
                end = time.perf_counter()
                idx, child = stack.pop()
                spans[idx] = (key, start, end, parent)
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                s = stats[key]
                s["s"] += dur
                s["self_s"] += dur - child
                s["calls"] += 1
            if counts:
                for q, v in counts(a, k, result).items():
                    s[q] += v
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def __enter__(self):
        for t in targets(self.hx):
            self._wrap(*t)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def value(self, key: str, quantity: str) -> float:
        return self.stats[key][quantity] if key in self.stats else 0.0

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"absent": self.absent,
                "stats": {k: dict(v) for k, v in sorted(self.stats.items())},
                "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                          for n, s, e, p in self.spans]}
