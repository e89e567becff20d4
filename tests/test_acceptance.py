"""Acceptance gate: eight binding checks on gradients, the CRF, the codec,
training behavior, determinism, persistence, and the document hierarchy.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (straight to the real
stdout, past pytest's capture) and then asserts, so the verdicts are visible
in any run log. The heavyweight training artifacts are built once per module
in fixtures and shared by the criteria that need them.
"""

import itertools
import json
import time

import numpy as np
import pytest

from hierex.cli import main
from hierex.crf import crf_params, crf_score, crf_log_partition, viterbi
from hierex.data import ENTITY_TYPES, TagSpan, bio_decode, bio_encode, bio_repairs, \
    encode_corpus, load_corpus
from hierex.generator import generate_corpus
from hierex.hier_model import HierConfig, HierModel
from hierex.linalg import Rng, glorot_init, logsumexp
from hierex.nn import grad_check
from hierex.train_eval import load_checkpoint, save_checkpoint

TOY = dict(vocab_size=20, embed_dim=4, sent_hidden=3, doc_hidden=3,
           tag_count=5, class_count=3)


def verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {n}: {detail}"


def run_cli(argv):
    rc = main(argv)
    assert rc == 0, f"command {argv} exited {rc}"


def eval_report(model_path, data_path, report_path):
    run_cli(["eval", "--model", str(model_path), "--data", str(data_path),
             "--report", str(report_path)])
    with open(report_path, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def c4(tmp_path_factory):
    """Criterion-4 artifacts: 32-doc corpus (gen seed 7), 300-epoch overfit."""
    root = tmp_path_factory.mktemp("acc4")
    corpus = root / "corpus"
    run_cli(["gen-corpus", "--out", str(corpus), "--n", "32", "--seed", "7",
             "--split", "1,0,0"])
    model = root / "model.bin"
    t0 = time.monotonic()
    run_cli(["train", "--train", str(corpus / "train.jsonl"),
             "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
             "--set", "max_epochs=300"])
    elapsed = time.monotonic() - t0
    report = eval_report(model, corpus / "train.jsonl", root / "train-report.json")
    return {"root": root, "corpus": corpus, "model": model,
            "elapsed": elapsed, "report": report}


@pytest.fixture(scope="module")
def c5(tmp_path_factory):
    """Criterion-5 artifacts: 2400-doc corpus (seed 42, 2000/200/200), defaults."""
    root = tmp_path_factory.mktemp("acc5")
    corpus = root / "corpus"
    split = f"{2000 / 2400!r},{200 / 2400!r},{200 / 2400!r}"
    run_cli(["gen-corpus", "--out", str(corpus), "--n", "2400", "--seed", "42",
             "--split", split])
    assert sum(1 for _ in open(corpus / "train.jsonl")) == 2000
    assert sum(1 for _ in open(corpus / "dev.jsonl")) == 200
    assert sum(1 for _ in open(corpus / "test.jsonl")) == 200
    model = root / "model.bin"
    t0 = time.monotonic()
    run_cli(["train", "--train", str(corpus / "train.jsonl"),
             "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model)])
    elapsed = time.monotonic() - t0
    report = eval_report(model, corpus / "test.jsonl", root / "test-report.json")
    return {"root": root, "corpus": corpus, "model": model,
            "elapsed": elapsed, "report": report}


# -- 1: gradient correctness --------------------------------------------------

def test_criterion_1_gradients(capsys):
    t0 = time.monotonic()
    rng = Rng(11)
    id_seqs, gold_tags, gold_classes = [], [], []
    for _ in range(2):
        n = 3 + rng.below(4)
        id_seqs.append([rng.below(TOY["vocab_size"]) for _ in range(n)])
        gold_tags.append([rng.below(TOY["tag_count"]) for _ in range(n)])
        gold_classes.append(rng.below(TOY["class_count"]))

    worst = {}
    for mode in ("softmax", "crf"):
        model = HierModel(HierConfig(tagger_mode=mode, **TOY), rng)
        report = grad_check(lambda: model.loss_document(id_seqs, gold_tags, gold_classes),
                            model.params(), eps=1e-5, sample=54, rng=rng)
        for t in report.tensors:
            assert t.max_rel < 1e-4, f"{mode} {t.name}: {t.max_rel:.3e}"
        worst[mode] = report.max_rel
    assert main(["gradcheck"]) == 0
    elapsed = time.monotonic() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    verdict(capsys, 1, ok,
            f"max rel err softmax {worst['softmax']:.2e}, crf {worst['crf']:.2e}, "
            f"{elapsed:.1f}s < 60s")


# -- 2: CRF against brute force ----------------------------------------------

def _random_crf_instance(seed):
    rng = Rng(seed)
    n = 1 + rng.below(4)
    k = 2 + rng.below(2)
    emissions = glorot_init(n, k, rng) * 4.0
    p = crf_params(k)
    p.trans.value[...] = glorot_init(k, k, rng) * 2.0
    p.start.value[...] = glorot_init(k, 1, rng)
    p.end.value[...] = glorot_init(k, 1, rng)
    return emissions, p


def test_criterion_2_crf_oracle(capsys):
    worst_gap = 0.0
    for seed in range(100):
        emissions, p = _random_crf_instance(seed)
        n, k = emissions.shape
        paths = list(itertools.product(range(k), repeat=n))
        scores = np.array([crf_score(emissions, list(path), p) for path in paths])
        brute_logz = float(logsumexp(scores))
        logz, _, _ = crf_log_partition(emissions, p)
        worst_gap = max(worst_gap, abs(logz - brute_logz))
        assert abs(logz - brute_logz) < 1e-8, f"seed {seed}: logZ gap"

        best = paths[0]
        best_score = scores[0]
        for path, score in zip(paths[1:], scores[1:]):
            if score > best_score:
                best, best_score = path, score
        got_path, got_score = viterbi(emissions, p)
        assert got_path == list(best), f"seed {seed}: viterbi path"
        assert got_score == best_score, f"seed {seed}: viterbi score"
    verdict(capsys, 2, True,
            f"100 instances, worst |logZ gap| {worst_gap:.2e} < 1e-8, "
            f"viterbi exact under smallest-id ties")


# -- 3: codec round-trip -------------------------------------------------------

def test_criterion_3_codec(capsys):
    rng = Rng(0)
    for case in range(1000):
        length = 1 + rng.below(12)
        occupied = [False] * length
        spans = []
        for _ in range(rng.below(4)):
            start = rng.below(length)
            end = start + 1 + rng.below(length - start)
            if any(occupied[start:end]):
                continue
            for i in range(start, end):
                occupied[i] = True
            spans.append(TagSpan(start, end, rng.choice(ENTITY_TYPES)))
        tags = bio_encode(spans, length)
        assert bio_repairs(tags) == 0
        assert bio_decode(tags) == sorted(spans, key=lambda s: s.start), \
            f"layout {case} failed round-trip"

    docs = generate_corpus(1000, seed=42)
    repairs = 0
    for doc in docs:
        for sent in doc.sentences:
            bio_decode(sent.tags, known_labels=set(ENTITY_TYPES))
            repairs += bio_repairs(sent.tags)
    assert repairs == 0
    verdict(capsys, 3, True,
            "1000 layouts round-trip exactly; 1000-doc corpus (seed 42) "
            "decodes with 0 repairs")


# -- 4: overfit ----------------------------------------------------------------

def test_criterion_4_overfit(capsys, c4):
    tok, cls = c4["report"]["token_acc"], c4["report"]["class_acc"]
    ok = tok >= 0.995 and cls == 1.0 and c4["elapsed"] < 300.0
    verdict(capsys, 4, ok,
            f"32-doc overfit: token_acc {tok:.4f} >= 0.995, class_acc {cls:.4f} "
            f"== 1.0, {c4['elapsed']:.0f}s < 300s")


# -- 5: desk-scale generalization ------------------------------------------------

def test_criterion_5_generalization(capsys, c5):
    f1 = c5["report"]["span"]["micro"]["f1"]
    cls = c5["report"]["class_acc"]
    model, _, _, _ = load_checkpoint(str(c5["model"]))
    ok = (f1 >= 0.95 and cls >= 0.97 and model.cfg.tagger_mode == "crf"
          and c5["elapsed"] < 900.0)
    verdict(capsys, 5, ok,
            f"2000/200/200: test span-F1 {f1:.4f} >= 0.95, class_acc {cls:.4f} "
            f">= 0.97, crf mode, {c5['elapsed']:.0f}s < 900s")


# -- 6: determinism --------------------------------------------------------------

def _repeat_run(work, corpus, name, extra_sets):
    model = work / name
    run_cli(["train", "--train", str(corpus / "train.jsonl"),
             "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
             *extra_sets])
    return model


def test_criterion_6_determinism(capsys, c4, c5, tmp_path):
    pieces = []
    m4 = _repeat_run(tmp_path, c4["corpus"], "again4.bin",
                     ["--set", "max_epochs=300"])
    pieces.append(("overfit checkpoint",
                   m4.read_bytes() == c4["model"].read_bytes()))
    pieces.append(("overfit history",
                   (str(m4) + ".history.jsonl", str(c4["model"]) + ".history.jsonl")))
    m5 = _repeat_run(tmp_path, c5["corpus"], "again5.bin", [])
    pieces.append(("desk-scale checkpoint",
                   m5.read_bytes() == c5["model"].read_bytes()))
    pieces.append(("desk-scale history",
                   (str(m5) + ".history.jsonl", str(c5["model"]) + ".history.jsonl")))
    pieces.append(("desk-scale dev report",
                   (str(m5) + ".report.json", str(c5["model"]) + ".report.json")))

    rep4 = eval_report(m4, c4["corpus"] / "train.jsonl", tmp_path / "rep4.json")
    pieces.append(("overfit eval report", rep4 == c4["report"]))
    rep5 = eval_report(m5, c5["corpus"] / "test.jsonl", tmp_path / "rep5.json")
    pieces.append(("desk-scale eval report", rep5 == c5["report"]))

    failures = []
    for name, check in pieces:
        if isinstance(check, tuple):
            check = open(check[0], "rb").read() == open(check[1], "rb").read()
        if not check:
            failures.append(name)
    verdict(capsys, 6, not failures,
            "repeat runs byte-identical: checkpoints, history, reports"
            if not failures else f"mismatch in {failures}")


# -- 7: persistence ----------------------------------------------------------------

def test_criterion_7_persistence(capsys, c5, tmp_path):
    model, vocab, tag_map, class_map = load_checkpoint(str(c5["model"]))
    docs = generate_corpus(100, seed=100)
    encode_corpus(docs, vocab, tag_map, class_map)
    id_seqs = [[s.token_ids for s in d.sentences] for d in docs]
    before = [model.predict_document(ids) for ids in id_seqs]

    p1 = tmp_path / "p1.bin"
    save_checkpoint(str(p1), model, vocab, tag_map, class_map)
    loaded, v2, t2, c2 = load_checkpoint(str(p1))
    after = [loaded.predict_document(ids) for ids in id_seqs]

    bitwise = all(
        a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
        for a, b in zip(before, after))
    p2 = tmp_path / "p2.bin"
    save_checkpoint(str(p2), loaded, v2, t2, c2)
    files_equal = p1.read_bytes() == p2.read_bytes()
    verdict(capsys, 7, bitwise and files_equal,
            f"predictions on 100 docs bit-identical after save/load: {bitwise}; "
            f"save-load-save byte-identical: {files_equal}")


# -- 8: the document level carries signal ----------------------------------------

def test_criterion_8_hierarchy(capsys, c5, tmp_path):
    ablated = tmp_path / "ablated.bin"
    run_cli(["train", "--train", str(c5["corpus"] / "train.jsonl"),
             "--dev", str(c5["corpus"] / "dev.jsonl"), "--out-model", str(ablated),
             "--set", "doc_hidden=1", "--set", "ablate_doc_context=true"])
    ab_report = eval_report(ablated, c5["corpus"] / "test.jsonl",
                            tmp_path / "ab-report.json")
    full_acc = c5["report"]["class_acc"]
    ab_acc = ab_report["class_acc"]
    verdict(capsys, 8, ab_acc < full_acc,
            f"ablated class_acc {ab_acc:.4f} < full class_acc {full_acc:.4f}")
