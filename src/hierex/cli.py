"""Command-line pipeline: corpus generation, training, evaluation,
extraction over raw or pre-tokenized text, and gradient checking.

Exit codes are a stable contract: 0 success, 1 usage, 2 input/parse,
3 numeric failure, 4 extraction produced nothing. All file outputs are
deterministic functions of (inputs, flags), so repeated invocations write
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from typing import get_type_hints

from .data import (Document, ParseError, Sentence, _record_to_doc, bio_decode,
                   build_class_map, build_tag_map, build_vocab, encode_corpus,
                   load_corpus, save_corpus, split_sentences, tokenize)
from .generator import generate_corpus
from .hier_model import HierConfig, HierModel
from .linalg import ContractError, Rng
from .nn import grad_check
from .train_eval import (CheckpointError, NumericError, TrainConfig, evaluate,
                         load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_EMPTY = 4

GRADCHECK_DIMS = dict(vocab_size=20, embed_dim=4, sent_hidden=3, doc_hidden=3,
                      tag_count=5, class_count=3)
GRADCHECK_THRESHOLD = 1e-4


class _UsageError(Exception):
    """Bad flag values discovered after argparse (e.g. --set payloads)."""


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Config overrides (--config file, then --set key=value on top)
# ---------------------------------------------------------------------------

def _knobs(cls) -> dict:
    """A config dataclass's fields that have defaults, with their types.
    The others (vocab, tag and class counts) come from the data."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.default is not MISSING}


_HIER_KEYS = _knobs(HierConfig)
_TRAIN_KEYS = _knobs(TrainConfig)
_ALL_KEYS = {**_TRAIN_KEYS, **_HIER_KEYS}


def _coerce(key: str, raw: str):
    """Parse one --set value into the key's declared type."""
    want = _ALL_KEYS[key]
    if want is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise _UsageError(f"--set {key}: expected true/false, got {raw!r}")
    if want is str:
        return raw
    try:
        return want(raw)
    except ValueError:
        raise _UsageError(f"--set {key}: expected {want.__name__}, got {raw!r}") from None


def _check_file_value(path: str, key: str, value):
    want = _ALL_KEYS[key]
    ok = (isinstance(value, bool) if want is bool
          else isinstance(value, int) and not isinstance(value, bool) if want is int
          else isinstance(value, (int, float)) and not isinstance(value, bool) if want is float
          else isinstance(value, str))
    if not ok:
        raise ParseError(f"config file {path}: key {key!r} expects {want.__name__}, "
                         f"got {value!r}")
    return float(value) if want is float else value


def _collect_overrides(config_path: str | None, set_pairs: list[str]) -> dict:
    merged: dict = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as f:
                loaded = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"config file {config_path}: invalid JSON ({e.msg})") from None
        if not isinstance(loaded, dict):
            raise ParseError(f"config file {config_path}: expected a flat JSON object")
        for key, value in loaded.items():
            if key not in _ALL_KEYS:
                raise ParseError(f"config file {config_path}: unknown key {key!r}")
            merged[key] = _check_file_value(config_path, key, value)
    for pair in set_pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise _UsageError(f"--set expects key=value, got {pair!r}")
        if key not in _ALL_KEYS:
            raise _UsageError(f"--set: unknown config key {key!r} "
                              f"(known: {', '.join(sorted(_ALL_KEYS))})")
        merged[key] = _coerce(key, raw)
    return merged


def _split_configs(overrides: dict) -> tuple[TrainConfig, dict]:
    """Partition merged overrides into a TrainConfig and HierConfig kwargs,
    and validate both before any corpus is read."""
    tcfg = TrainConfig()
    hier_kwargs: dict = {}
    for key, value in overrides.items():
        if key in _TRAIN_KEYS:
            setattr(tcfg, key, value)
        else:
            hier_kwargs[key] = value
    tcfg.validate()
    # The sizes come from the data later; 1 stands in for them here.
    HierConfig(vocab_size=1, tag_count=1, class_count=1, **hier_kwargs).validate()
    return tcfg, hier_kwargs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_split(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--split expects three comma-separated fractions, got {text!r}")
    try:
        f1, f2, f3 = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--split: non-numeric fraction in {text!r}") from None
    if min(f1, f2, f3) < 0.0 or abs((f1 + f2 + f3) - 1.0) > 1e-9:
        raise _UsageError(f"--split fractions must be >= 0 and sum to 1, got {text!r}")
    return f1, f2, f3


def cmd_gen_corpus(args) -> int:
    f1, f2, _ = _parse_split(args.split)
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    docs = generate_corpus(args.n, args.seed)
    os.makedirs(args.out, exist_ok=True)
    n = args.n
    b1 = max(0, min(n, round(n * f1)))
    b2 = max(b1, min(n, round(n * (f1 + f2))))
    for name, chunk in (("train", docs[:b1]), ("dev", docs[b1:b2]), ("test", docs[b2:])):
        save_corpus(chunk, os.path.join(args.out, f"{name}.jsonl"))
    print(f"wrote {b1} train / {b2 - b1} dev / {n - b2} test documents to {args.out}")
    return EXIT_OK


def _require_gold(docs: list[Document], path: str) -> None:
    for doc in docs:
        for i, sent in enumerate(doc.sentences):
            if sent.tags is None or sent.class_name is None:
                raise ParseError(f"{path}: doc {doc.doc_id} sentence {i} lacks gold "
                                 f"tags or class")


def cmd_train(args) -> int:
    overrides = _collect_overrides(args.config, args.set or [])
    tcfg, hier_kwargs = _split_configs(overrides)
    train_docs = load_corpus(args.train, known_classes=None)
    if not train_docs:
        raise ParseError(f"{args.train}: no documents")
    dev_docs = load_corpus(args.dev, known_classes=None)
    _require_gold(train_docs, args.train)
    _require_gold(dev_docs, args.dev)

    vocab = build_vocab(train_docs)
    tag_map = build_tag_map(train_docs)
    class_map = build_class_map(train_docs)
    encode_corpus(train_docs, vocab, tag_map, class_map)
    encode_corpus(dev_docs, vocab, tag_map, class_map)

    hcfg = HierConfig(vocab_size=len(vocab), tag_count=len(tag_map),
                      class_count=len(class_map), **hier_kwargs)
    model = HierModel(hcfg, Rng(tcfg.seed))

    def show(row: dict) -> None:
        line = f"epoch {row['epoch']:3d}  loss {row['train_loss']:.6f}"
        if row["dev_f1"] is not None:
            line += f"  dev_f1 {row['dev_f1']:.4f}  dev_class_acc {row['dev_class_acc']:.4f}"
        print(line, flush=True)

    result = train(model, train_docs, dev_docs, tcfg, tag_map, on_epoch=show)
    save_checkpoint(args.out_model, model, vocab, tag_map, class_map)
    with open(args.out_model + ".history.jsonl", "w", encoding="utf-8") as f:
        for row in result.history:
            f.write(json.dumps(row, sort_keys=True))
            f.write("\n")
    if dev_docs:
        rep = evaluate(model, dev_docs, tag_map)
        text = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)
        print(text)
        with open(args.out_model + ".report.json", "w", encoding="utf-8") as f:
            f.write(text)
            f.write("\n")
    else:
        sys.stderr.write("no dev documents: final epoch kept, no dev report written\n")
    print(f"saved model to {args.out_model} (epoch {result.best_epoch})")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, vocab, tag_map, class_map = load_checkpoint(args.model)
    docs = load_corpus(args.data, known_classes=None)
    if not docs:
        raise ParseError(f"{args.data}: no documents")
    _require_gold(docs, args.data)
    encode_corpus(docs, vocab, tag_map, class_map)
    rep = evaluate(model, docs, tag_map)
    text = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(text)
            f.write("\n")
    return EXIT_OK


def _record_to_raw_doc(rec: dict, lineno: int) -> Document:
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError(f"line {lineno}: field 'id' missing or not a nonempty string")
    text = rec.get("text")
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"line {lineno}: field 'text' missing or blank")
    sentences = [Sentence(tokens=tokenize(s)) for s in split_sentences(text)]
    sentences = [s for s in sentences if s.tokens]
    if not sentences:
        raise ParseError(f"line {lineno}: field 'text' contains no tokens")
    return Document(doc_id, sentences)


def _extract_record(model: HierModel, vocab, tag_map: list[str],
                    class_map: list[str], doc: Document) -> dict:
    id_seqs = [[vocab.id(t) for t in s.tokens] for s in doc.sentences]
    tag_paths, class_ids, _ = model.predict_document(id_seqs)
    out_sents = []
    for i, sent in enumerate(doc.sentences):
        tags = [tag_map[t] for t in tag_paths[i]]
        ents = [{"start": sp.start, "end": sp.end, "label": sp.label,
                 "text": " ".join(sent.tokens[sp.start:sp.end])}
                for sp in bio_decode(tags)]
        out_sents.append({"class": class_map[class_ids[i]], "entities": ents})
    return {"id": doc.doc_id, "sentences": out_sents}


def cmd_extract(args) -> int:
    model, vocab, tag_map, class_map = load_checkpoint(args.model)
    fin = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    out_path = args.out if args.out else "-"
    fout = sys.stdout if out_path == "-" else open(out_path, "w", encoding="utf-8")
    successes = 0
    try:
        for lineno, line in enumerate(fin, 1):
            if not line.strip():
                continue
            rec_id = None
            try:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from None
                if not isinstance(rec, dict):
                    raise ParseError(f"line {lineno}: record is not an object")
                rec_id = rec.get("id")
                if args.pretokenized:
                    doc = _record_to_doc(rec, lineno, known_classes=None)
                else:
                    doc = _record_to_raw_doc(rec, lineno)
                out_rec = _extract_record(model, vocab, tag_map, class_map, doc)
            except ParseError as e:
                err = {"line": lineno, "error": str(e)}
                if isinstance(rec_id, str) and rec_id:
                    err["id"] = rec_id
                sys.stderr.write(json.dumps(err, ensure_ascii=False) + "\n")
                sys.stderr.flush()
                continue
            fout.write(json.dumps(out_rec, ensure_ascii=False, separators=(",", ":")))
            fout.write("\n")
            fout.flush()
            successes += 1
    finally:
        if fin is not sys.stdin:
            fin.close()
        if fout is not sys.stdout:
            fout.close()
    return EXIT_OK if successes else EXIT_EMPTY


def cmd_gradcheck(args) -> int:
    if args.sample < 1:
        raise _UsageError(f"--sample must be >= 1, got {args.sample}")
    if not (math.isfinite(args.eps) and args.eps > 0.0):
        raise _UsageError(f"--eps must be finite and > 0, got {args.eps!r}")
    rng = Rng(args.seed)
    dims = GRADCHECK_DIMS
    id_seqs, gold_tags, gold_classes = [], [], []
    for _ in range(2):
        n = 3 + rng.below(4)
        id_seqs.append([rng.below(dims["vocab_size"]) for _ in range(n)])
        gold_tags.append([rng.below(dims["tag_count"]) for _ in range(n)])
        gold_classes.append(rng.below(dims["class_count"]))

    all_pass = True
    for mode in ("softmax", "crf"):
        cfg = HierConfig(tagger_mode=mode, **dims)
        model = HierModel(cfg, rng)

        def loss_fn(m=model):
            return m.loss_document(id_seqs, gold_tags, gold_classes)

        report = grad_check(loss_fn, model.params(), eps=args.eps,
                            sample=args.sample, rng=rng)
        for t in report.tensors:
            print(f"{mode:8s} {t.name:14s} max_rel {t.max_rel:.3e} ({t.checked} coords)")
        print(f"{mode:8s} overall max_rel {report.max_rel:.3e}")
        all_pass = all_pass and report.passed(GRADCHECK_THRESHOLD)
    print(f"gradcheck {'PASS' if all_pass else 'FAIL'} (threshold {GRADCHECK_THRESHOLD:g})")
    return EXIT_OK if all_pass else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="hierex",
                description="Hierarchical recurrent tagger for lawsuit-style documents")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-corpus", help="write a synthetic train/dev/test corpus")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--n", required=True, type=int, help="number of documents")
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,dev,test fractions (default 0.8,0.1,0.1)")
    g.set_defaults(func=cmd_gen_corpus)

    t = sub.add_parser("train", help="train a model on a gold corpus")
    t.add_argument("--train", required=True, help="training corpus (.jsonl)")
    t.add_argument("--dev", required=True, help="dev corpus (.jsonl); may be empty")
    t.add_argument("--out-model", required=True, dest="out_model")
    t.add_argument("--config", help="flat JSON object of config overrides")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override; wins over --config")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a model against a gold corpus")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report", help="also write the metrics JSON here")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("extract", help="run extraction over line-delimited records")
    x.add_argument("--model", required=True)
    x.add_argument("--input", required=True, help="records file, or - for stdin")
    x.add_argument("--out", help="output file, or - for stdout (default)")
    x.add_argument("--pretokenized", action="store_true",
                   help="records carry sentences/tokens instead of raw text")
    x.set_defaults(func=cmd_extract)

    c = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    c.add_argument("--seed", type=int, default=11)
    c.add_argument("--eps", type=float, default=1e-5)
    c.add_argument("--sample", type=int, default=108,
                   help="coordinates checked per tensor (default 108: every "
                        "coordinate of every tensor)")
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write(f"hierex: error: {e}\n")
        return EXIT_USAGE
    except (ParseError, CheckpointError, ContractError, OSError) as e:
        sys.stderr.write(f"hierex: {e}\n")
        return EXIT_INPUT
    except NumericError as e:
        sys.stderr.write(f"hierex: numeric failure: {e}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
