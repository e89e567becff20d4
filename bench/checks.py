"""Output checks the benchmark computes apart from hierex.

Nothing here imports hierex: gold spans are decoded from the corpus files
with this module's own BIO reader, and span-F1 and class accuracy are
scored from the records that ``hierex extract`` writes. Each check returns
a list of problems; an empty list means the check passed. ``self_test``
feeds every check a corrupted copy of real outputs and reports any check
that fails to notice.
"""

from __future__ import annotations

import copy
import json
import math


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def gold_spans(tags: list[str]) -> set[tuple[int, int, str]]:
    """Half-open (start, end, label) spans of well-formed BIO tags.

    A gold I- tag that does not continue a same-label span is a corpus
    fault, not something to repair, so it raises.
    """
    spans: set[tuple[int, int, str]] = set()
    start, label = None, None
    for t, tag in enumerate(list(tags) + ["O"]):
        if tag.startswith("I-") and label == tag[2:]:
            continue
        if start is not None:
            spans.add((start, t, label))
            start, label = None, None
        if tag.startswith("B-"):
            start, label = t, tag[2:]
        elif tag != "O":
            raise ValueError(f"malformed gold tag {tag!r} at position {t}")
    return spans


def score(records: list[dict], gold_docs: list[dict]) -> tuple[float, float]:
    """Micro exact-match span-F1 and sentence-class accuracy of extract
    records against gold documents, matched by id.

    F1 follows the usual convention: P = correct / predicted, R = correct /
    gold, F1 = 2PR / (P + R), and 1.0 when both sides are empty.
    """
    by_id = {r["id"]: r for r in records}
    correct = n_pred = n_gold = cls_ok = n_sent = 0
    for doc in gold_docs:
        rec = by_id[doc["id"]]
        for sent, out in zip(doc["sentences"], rec["sentences"]):
            gold = gold_spans(sent["tags"])
            pred = {(e["start"], e["end"], e["label"]) for e in out["entities"]}
            correct += len(gold & pred)
            n_pred += len(pred)
            n_gold += len(gold)
            cls_ok += int(out["class"] == sent["class"])
            n_sent += 1
    if n_pred == 0 and n_gold == 0:
        f1 = 1.0
    else:
        p = correct / n_pred if n_pred else 0.0
        r = correct / n_gold if n_gold else 0.0
        f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return f1, cls_ok / n_sent


def check_scores_agree(records: list[dict], gold_docs: list[dict], report: dict,
                       what: str) -> list[str]:
    """The span-F1 and class accuracy scored here from extract output must
    equal those hierex reports for the same model and documents."""
    f1, acc = score(records, gold_docs)
    problems = []
    rep_f1 = report["span"]["micro"]["f1"]
    if not math.isclose(f1, rep_f1, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{what}: span-F1 {rep_f1!r} but extract output scores {f1!r}")
    if not math.isclose(acc, report["class_acc"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{what}: class_acc {report['class_acc']!r} but extract output "
                        f"scores {acc!r}")
    return problems


def check_entities(records: list[dict], input_docs: list[dict]) -> list[str]:
    """Every record has one output sentence per input sentence, and every
    entity lies inside its sentence with text equal to its tokens."""
    by_id = {d["id"]: d for d in input_docs}
    problems = []
    for rec in records:
        doc = by_id.get(rec["id"])
        if doc is None:
            problems.append(f"{rec['id']}: not an input document")
            continue
        if len(rec["sentences"]) != len(doc["sentences"]):
            problems.append(f"{rec['id']}: {len(rec['sentences'])} sentences out, "
                            f"{len(doc['sentences'])} in")
            continue
        for i, (out, sent) in enumerate(zip(rec["sentences"], doc["sentences"])):
            toks = sent["tokens"]
            for e in out["entities"]:
                if not 0 <= e["start"] < e["end"] <= len(toks):
                    problems.append(f"{rec['id']} sentence {i}: entity "
                                    f"[{e['start']}, {e['end']}) outside {len(toks)} tokens")
                elif e["text"] != " ".join(toks[e["start"]:e["end"]]):
                    problems.append(f"{rec['id']} sentence {i}: entity text {e['text']!r} "
                                    f"does not match its offsets")
    return problems


def check_replies(sent_ids: list[str], replies: list[dict | None]) -> list[str]:
    """One reply per record, in input order, carrying the record's id. A
    None reply is a record that failed; it is counted as failed, not here."""
    if len(replies) != len(sent_ids):
        return [f"{len(replies)} replies to {len(sent_ids)} records"]
    return [f"reply {i}: id {rep.get('id')!r}, expected {rid!r}"
            for i, (rid, rep) in enumerate(zip(sent_ids, replies))
            if rep is not None and rep.get("id") != rid]


def check_stream_matches_file(replies: list[dict | None], file_records: list[dict]) -> list[str]:
    """Each streamed reply carries the same prediction as the file output
    for the same document: a document's result must not depend on which
    documents are processed with it."""
    by_id = {r["id"]: r["sentences"] for r in file_records}
    problems = []
    for i, rep in enumerate(replies):
        if rep is not None and rep["sentences"] != by_id.get(rep["id"]):
            problems.append(f"reply {i} ({rep['id']}): differs from the file output")
    return problems


def check_history(rows: list[dict], epochs: int) -> list[str]:
    """Every epoch's training loss is finite and the last is below the first."""
    losses = [r["train_loss"] for r in rows if "epoch" in r]
    if len(losses) != epochs:
        return [f"history has {len(losses)} epochs, expected {epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"non-finite training loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"last epoch loss {losses[-1]} not below first {losses[0]}"]
    return []


def self_test(records: list[dict], gold_docs: list[dict], report: dict,
              sent_ids: list[str], replies: list[dict]) -> list[str]:
    """Corrupt real outputs five ways; return the corruptions no check caught."""
    missed = []

    def expect_fail(name: str, problems: list[str]) -> None:
        if not problems:
            missed.append(name)

    # A predicted span shifted right by one token, its text kept consistent,
    # so only the scoring can notice.
    shifted = copy.deepcopy(records)
    gold_sents = {d["id"]: d["sentences"] for d in gold_docs}
    movable = next(((e, sent["tokens"]) for rec in shifted
                    for out, sent in zip(rec["sentences"], gold_sents[rec["id"]])
                    for e in out["entities"] if e["end"] < len(sent["tokens"])), None)
    if movable is None:
        missed.append("shifted span (no entity to shift)")
    else:
        e, toks = movable
        e["start"] += 1
        e["end"] += 1
        e["text"] = " ".join(toks[e["start"]:e["end"]])
        expect_fail("shifted span", check_scores_agree(shifted, gold_docs, report, "self-test"))

    expect_fail("dropped record", check_replies(sent_ids, replies[:-1]))

    swapped = list(replies)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    expect_fail("reply out of order", check_replies(sent_ids, swapped))

    bad_report = copy.deepcopy(report)
    bad_report["span"]["micro"]["f1"] = report["span"]["micro"]["f1"] - 1e-3
    expect_fail("changed report F1", check_scores_agree(records, gold_docs, bad_report,
                                                        "self-test"))

    bad_text = copy.deepcopy(records)
    for rec in bad_text:
        ents = [e for out in rec["sentences"] for e in out["entities"]]
        if ents:
            ents[0]["text"] += " x"
            break
    expect_fail("entity text mismatch", check_entities(bad_text, gold_docs))
    return missed
