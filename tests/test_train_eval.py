"""Optimizer, clipping, metrics, training loop, and checkpoint files."""

import json
import math
import re
import struct

import numpy as np
import pytest

from hierex.data import (TagSpan, build_class_map, build_tag_map, build_vocab,
                         encode_corpus)
from hierex.generator import generate_corpus
from hierex.hier_model import HierConfig, HierModel
from hierex.linalg import ContractError, Rng
from hierex.nn import param
from hierex.train_eval import (Adam, CheckpointError, EvalReport, NumericError,
                               TrainConfig, clip_global, evaluate, load_checkpoint,
                               save_checkpoint, snapshot_params, train)


def micro_setup(n_train=4, n_dev=2, seed=3, **hier_overrides):
    docs = generate_corpus(n_train + n_dev, seed=seed)
    vocab = build_vocab(docs)
    tag_map = build_tag_map(docs)
    class_map = build_class_map(docs)
    encode_corpus(docs, vocab, tag_map, class_map)
    hier = dict(vocab_size=len(vocab), tag_count=len(tag_map),
                class_count=len(class_map), embed_dim=8, sent_hidden=8,
                doc_hidden=8)
    hier.update(hier_overrides)
    cfg = HierConfig(**hier)
    model = HierModel(cfg, Rng(1))
    return model, docs[:n_train], docs[n_train:], vocab, tag_map, class_map


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(lr=0.0), dict(beta1=1.0), dict(beta2=-0.1), dict(adam_eps=0.0),
        dict(clip_norm=0.0), dict(batch_docs=0), dict(max_epochs=0),
        dict(patience=0), dict(lr=math.inf), dict(adam_eps=math.inf),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ContractError):
            TrainConfig(**bad).validate()

    def test_infinite_clip_norm_means_no_clipping(self):
        TrainConfig(clip_norm=math.inf).validate()


class TestAdam:
    def test_first_step_hand_value(self):
        # theta=0, g=1, defaults: mhat=vhat=1, so the update is exactly
        # -lr / (1 + eps) regardless of the betas.
        theta = param("theta", 1, 1, None)
        opt = Adam([theta], TrainConfig())
        theta.grad[0, 0] = 1.0
        opt.step()
        assert theta.value[0, 0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-14)

    def test_constant_grad_constant_step(self):
        theta = param("theta", 1, 1, None)
        opt = Adam([theta], TrainConfig())
        deltas = []
        for _ in range(3):
            before = theta.value[0, 0]
            theta.grad[0, 0] = 1.0
            opt.step()
            deltas.append(theta.value[0, 0] - before)
        assert deltas[0] == pytest.approx(deltas[1], rel=1e-12)
        assert deltas[1] == pytest.approx(deltas[2], rel=1e-12)

    def test_zero_grad_no_motion(self):
        theta = param("theta", 2, 2, Rng(0))
        before = theta.value.copy()
        opt = Adam([theta], TrainConfig())
        opt.step()
        assert np.array_equal(theta.value, before)

    def test_grads_cleared_and_t_advances_once(self):
        a, b = param("a", 2, 1, Rng(1)), param("b", 3, 1, Rng(2))
        opt = Adam([a, b], TrainConfig())
        a.grad[:] = 1.0
        b.grad[:] = 2.0
        opt.step()
        assert opt.t == 1
        assert np.all(a.grad == 0.0) and np.all(b.grad == 0.0)

    def test_nonfinite_grad_names_tensor(self):
        theta = param("emit.W", 2, 3, None)
        theta.grad[1, 2] = float("nan")
        opt = Adam([theta], TrainConfig())
        with pytest.raises(NumericError, match=r"emit\.W.*\(1, 2\)"):
            opt.step()

    def test_descends_on_quadratic(self):
        # Minimize 0.5 * theta^2: the gradient is theta itself.
        theta = param("theta", 1, 1, None)
        theta.value[0, 0] = 1.0
        opt = Adam([theta], TrainConfig(lr=0.05))
        for _ in range(200):
            theta.grad[0, 0] = theta.value[0, 0]
            opt.step()
        assert abs(theta.value[0, 0]) < 0.05


class TestClipGlobal:
    def test_zero_grads_untouched(self):
        p = param("p", 2, 2, None)
        assert clip_global([p], 5.0) == (1.0, 0.0)
        assert np.all(p.grad == 0.0)

    def test_under_threshold_untouched(self):
        p = param("p", 1, 1, None)
        p.grad[0, 0] = 3.0
        assert clip_global([p], 5.0) == (1.0, 3.0)
        assert p.grad[0, 0] == 3.0

    def test_single_entry_halved(self):
        p = param("p", 1, 1, None)
        p.grad[0, 0] = 10.0
        assert clip_global([p], 5.0) == (0.5, 10.0)
        assert p.grad[0, 0] == 5.0

    def test_joint_norm_across_tensors(self):
        a, b = param("a", 1, 1, None), param("b", 1, 1, None)
        a.grad[0, 0], b.grad[0, 0] = 3.0, 4.0
        assert clip_global([a, b], 2.5) == (0.5, 5.0)
        assert a.grad[0, 0] == 1.5 and b.grad[0, 0] == 2.0

    def test_boundary_is_not_clipped(self):
        a, b = param("a", 1, 1, None), param("b", 1, 1, None)
        a.grad[0, 0], b.grad[0, 0] = 3.0, 4.0
        assert clip_global([a, b], 5.0) == (1.0, 5.0)

    def test_never_inflates(self):
        rng = Rng(7)
        for trial in range(10):
            ps = [param(f"p{i}", 2, 3, rng) for i in range(3)]
            for p in ps:
                p.grad[:] = p.value * 10.0
            before = [np.abs(p.grad).copy() for p in ps]
            clip_global(ps, 0.5)
            total = sum(float(np.sum(p.grad * p.grad)) for p in ps)
            assert math.sqrt(total) <= 0.5 + 1e-12
            for b, p in zip(before, ps):
                assert np.all(np.abs(p.grad) <= b + 1e-15)


class _GoldStub:
    """Pretend model that answers with whatever the corpus says."""

    def __init__(self, docs):
        self._by_ids = {}
        for doc in docs:
            key = tuple(tuple(s.token_ids) for s in doc.sentences)
            self._by_ids[key] = ([list(s.tag_ids) for s in doc.sentences],
                                 [s.class_id for s in doc.sentences])

    def predict_document(self, id_seqs):
        tags, classes = self._by_ids[tuple(tuple(s) for s in id_seqs)]
        return tags, classes, None


class TestEvaluate:
    def test_gold_stub_scores_one(self):
        _, train_docs, _, _, tag_map, _ = micro_setup()
        rep = evaluate(_GoldStub(train_docs), train_docs, tag_map)
        assert rep.token_acc == 1.0
        assert rep.span.micro.f1 == 1.0
        assert rep.class_acc == 1.0
        assert rep.docs == len(train_docs)

    def test_zero_model_predicts_outside(self):
        model, train_docs, _, _, tag_map, class_map = micro_setup()
        zero = HierModel(model.cfg, rng=None)
        rep = evaluate(zero, train_docs, tag_map)
        # All-O predictions: no predicted spans, so precision is 1 by
        # convention but recall is 0 against a corpus full of entities.
        assert rep.span.micro.recall == 0.0
        assert rep.span.micro.f1 == 0.0
        assert 0.0 < rep.token_acc < 1.0

    def test_doc_order_invariance(self):
        model, train_docs, _, _, tag_map, _ = micro_setup()
        a = evaluate(model, train_docs, tag_map).to_json_dict()
        b = evaluate(model, list(reversed(train_docs)), tag_map).to_json_dict()
        assert a == b

    def test_requires_encoded_docs(self):
        model, train_docs, _, _, tag_map, _ = micro_setup()
        docs = generate_corpus(1, seed=99)
        with pytest.raises(ContractError, match="not encoded"):
            evaluate(model, docs, tag_map)
        with pytest.raises(ContractError, match="empty"):
            evaluate(model, [], tag_map)

    def test_report_schema(self):
        _, train_docs, _, _, tag_map, _ = micro_setup()
        d = evaluate(_GoldStub(train_docs), train_docs, tag_map).to_json_dict()
        assert set(d) == {"token_acc", "span", "class_acc", "docs"}
        assert set(d["span"]) == {"micro", "per_label"}
        assert set(d["span"]["micro"]) == {"p", "r", "f1"}
        for scores in d["span"]["per_label"].values():
            assert set(scores) == {"p", "r", "f1"}


class TestTrainLoop:
    def test_loss_decreases_when_overfitting(self):
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
        res = train(model, train_docs, dev_docs, TrainConfig(max_epochs=15, patience=15),
                    tag_map)
        losses = [r["train_loss"] for r in res.history if "epoch" in r]
        assert losses[-1] < losses[0]
        drops = sum(int(b <= a) for a, b in zip(losses, losses[1:]))
        assert drops >= 0.6 * (len(losses) - 1)

    def test_flat_dev_stops_after_patience(self):
        # A vanishing learning rate freezes dev F1, so epoch 2 cannot improve
        # on epoch 1 and patience=1 stops the loop there.
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
        res = train(model, train_docs, dev_docs,
                    TrainConfig(lr=1e-12, max_epochs=50, patience=1), tag_map)
        rows = [r for r in res.history if "epoch" in r]
        assert len(rows) == 2
        assert res.best_epoch == 1

    def test_empty_dev_runs_to_max_and_warns(self):
        model, train_docs, _, _, tag_map, _ = micro_setup()
        res = train(model, train_docs, [], TrainConfig(max_epochs=3), tag_map)
        assert "warning" in res.history[0]
        rows = [r for r in res.history if "epoch" in r]
        assert [r["epoch"] for r in rows] == [1, 2, 3]
        assert all(r["dev_f1"] is None for r in rows)
        assert res.best_epoch == 3 and res.best_dev_f1 is None

    def test_selection_matches_history_argmax(self):
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup(n_train=6, n_dev=3)
        res = train(model, train_docs, dev_docs,
                    TrainConfig(max_epochs=8, patience=8), tag_map)
        rows = [r for r in res.history if "epoch" in r]
        best = max(rows, key=lambda r: (r["dev_f1"], -r["epoch"]))
        assert res.best_epoch == best["epoch"]
        assert res.best_dev_f1 == best["dev_f1"]

    def test_final_params_are_best_epoch_params(self):
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup(n_train=6, n_dev=3)
        snaps = {}

        def grab(row):
            snaps[row["epoch"]] = snapshot_params(model)

        res = train(model, train_docs, dev_docs,
                    TrainConfig(max_epochs=6, patience=6), tag_map, on_epoch=grab)
        want = snaps[res.best_epoch]
        for got, exp in zip(snapshot_params(model), want):
            assert np.array_equal(got, exp)

    def test_deterministic_history_and_params(self):
        def run():
            model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
            res = train(model, train_docs, dev_docs,
                        TrainConfig(max_epochs=5, patience=5), tag_map)
            return json.dumps(res.history, sort_keys=True), snapshot_params(model)

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_batching_controls_steps_per_epoch(self):
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
        res = train(model, train_docs, dev_docs,
                    TrainConfig(max_epochs=1, batch_docs=2), tag_map)
        row = next(r for r in res.history if "epoch" in r)
        assert len(row["clip_factors"]) == math.ceil(len(train_docs) / 2)
        assert all(0.0 < f <= 1.0 for f in row["clip_factors"])
        assert len(row["grad_norms"]) == len(row["clip_factors"])

    def test_history_records_pre_clip_grad_norm(self):
        # One step per epoch over every document, so the first step's
        # gradient is the sum over the training set at the initial params.
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
        fresh, *_ = micro_setup()
        cfg = TrainConfig(max_epochs=1, batch_docs=len(train_docs), clip_norm=0.1)
        row = next(r for r in train(model, train_docs, dev_docs, cfg, tag_map).history
                   if "epoch" in r)
        for doc in train_docs:
            fresh.loss_document([s.token_ids for s in doc.sentences],
                                [s.tag_ids for s in doc.sentences],
                                [s.class_id for s in doc.sentences])
        want = math.sqrt(sum(float(np.sum(p.grad ** 2)) for p in fresh.params()))
        assert row["grad_norms"] == [pytest.approx(want, rel=1e-12)]
        assert want > cfg.clip_norm
        assert row["clip_factors"] == [cfg.clip_norm / row["grad_norms"][0]]

    def test_nan_params_raise_numeric_error(self):
        model, train_docs, dev_docs, _, tag_map, _ = micro_setup()
        model.embedding.value[:] = float("nan")
        with pytest.raises(NumericError, match="epoch 1"):
            train(model, train_docs, dev_docs, TrainConfig(max_epochs=1), tag_map)

    def test_empty_train_rejected(self):
        model, _, dev_docs, _, tag_map, _ = micro_setup()
        with pytest.raises(ContractError, match="empty training"):
            train(model, [], dev_docs, TrainConfig(), tag_map)


class TestCheckpoint:
    def _saved(self, tmp_path, mode="crf"):
        model, train_docs, _, vocab, tag_map, class_map = micro_setup(
            tagger_mode=mode)
        path = str(tmp_path / "m.bin")
        save_checkpoint(path, model, vocab, tag_map, class_map)
        return model, train_docs, vocab, tag_map, class_map, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, train_docs, vocab, tag_map, class_map, path = self._saved(tmp_path)
        loaded, v2, t2, c2 = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        assert v2.id_to_token == vocab.id_to_token
        assert (t2, c2) == (tag_map, class_map)
        for a, b in zip(model.params(), loaded.params()):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)
        ids = [s.token_ids for s in train_docs[0].sentences]
        assert model.predict_document(ids)[:2] == loaded.predict_document(ids)[:2]

    def test_save_load_save_byte_identical(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        loaded, v, t, c = load_checkpoint(path)
        path2 = str(tmp_path / "m2.bin")
        save_checkpoint(path2, loaded, v, t, c)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_bad_magic(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[:4] = b"ELF\x7f"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(bad))

    def test_unsupported_version(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "v99.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(bad))

    def _older_version_rejected(self, tmp_path, version):
        model, _, _, _, _, path = self._saved(tmp_path)
        assert [p.name for p in model.sent_gru.params()] == [
            "sent_gru.W", "sent_gru.U", "sent_gru.b"]
        data = bytearray(open(path, "rb").read())
        assert struct.unpack("<I", data[4:8]) == (3,)
        data[4:8] = struct.pack("<I", version)
        bad = tmp_path / f"v{version}.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(str(bad))

    def test_version_1_rejected(self, tmp_path):
        # v1 stored nine tensors per GRU cell; v3 stores W, U and b per BiGRU.
        self._older_version_rejected(tmp_path, 1)

    def test_version_2_rejected(self, tmp_path):
        # v2 stored W, U and b per direction: sent_fwd, sent_bwd, doc_fwd, doc_bwd.
        self._older_version_rejected(tmp_path, 2)

    def test_truncation(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        data = open(path, "rb").read()
        bad = tmp_path / "cut.bin"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(bad))

    def test_trailing_bytes(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = tmp_path / "fat.bin"
        bad.write_bytes(open(path, "rb").read() + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(str(bad))

    @staticmethod
    def _mutate_meta(path_in, path_out, fn):
        data = open(path_in, "rb").read()
        version, meta_len = struct.unpack("<II", data[4:12])
        meta = json.loads(data[12: 12 + meta_len])
        fn(meta)
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out = data[:4] + struct.pack("<II", version, len(blob)) + blob \
            + data[12 + meta_len:]
        open(path_out, "wb").write(out)

    def test_missing_tensor_detected(self, tmp_path):
        # Claim CRF mode over a softmax tensor section: the transition
        # tensors the config implies are absent.
        _, _, _, _, _, path = self._saved(tmp_path, mode="softmax")
        bad = str(tmp_path / "claims-crf.bin")
        self._mutate_meta(path, bad,
                          lambda m: m["config"].__setitem__("tagger_mode", "crf"))
        with pytest.raises(CheckpointError, match="lacks tensor"):
            load_checkpoint(bad)

    def test_unexpected_tensor_detected(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path, mode="crf")
        bad = str(tmp_path / "claims-softmax.bin")
        self._mutate_meta(path, bad,
                          lambda m: m["config"].__setitem__("tagger_mode", "softmax"))
        with pytest.raises(CheckpointError, match="unexpected tensors"):
            load_checkpoint(bad)

    def test_shape_mismatch_detected(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = str(tmp_path / "fatter.bin")
        self._mutate_meta(path, bad,
                          lambda m: m["config"].__setitem__("embed_dim", 9))
        with pytest.raises(CheckpointError, match="config implies"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field,value", [
        ("lambda_sent", "0.5"), ("lambda_sent", True), ("ablate_doc_context", "false"),
        ("ablate_doc_context", 0), ("embed_dim", True), ("embed_dim", 8.0),
    ])
    def test_ill_typed_config_detected(self, tmp_path, field, value):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = str(tmp_path / "ill-typed.bin")
        self._mutate_meta(path, bad, lambda m: m["config"].__setitem__(field, value))
        with pytest.raises(CheckpointError, match=f"bad checkpoint config: HierConfig.{field}"):
            load_checkpoint(bad)

    def test_missing_metadata_key(self, tmp_path):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = str(tmp_path / "nokey.bin")
        self._mutate_meta(path, bad, lambda m: m.pop("tag_map"))
        with pytest.raises(CheckpointError, match="tag_map"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key,size_field,cut", [
        ("tag_map", "tag_count", lambda m: m["tag_map"][:3]),
        ("class_map", "class_count", lambda m: m["class_map"][:-1]),
        ("vocab", "vocab_size", lambda m: m["vocab"] + [f"extra{i}" for i in range(5)]),
        ("vocab", "vocab_size", lambda m: "not a list"),
    ])
    def test_inventory_length_mismatch_detected(self, tmp_path, key, size_field, cut):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = str(tmp_path / "mismatch.bin")
        self._mutate_meta(path, bad, lambda m: m.__setitem__(key, cut(m)))
        with pytest.raises(CheckpointError, match=f"checkpoint {key} has .*{size_field}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key,entries,message", [
        ("vocab", lambda v: v[:2] + [7] + v[3:],
         "checkpoint vocab has 7 at index 2, not a string"),
        ("vocab", lambda v: v[:2] + [v[3]] + v[3:], "checkpoint vocab has repeated entries"),
        ("tag_map", lambda t: list(range(len(t))),
         "checkpoint tag_map has 0 at index 0, not a BIO tag"),
        ("tag_map", lambda t: ["FOO"] * len(t),
         "checkpoint tag_map has 'FOO' at index 0, not a BIO tag"),
        ("tag_map", lambda t: t[:-1] + [t[0]], "checkpoint tag_map has repeated entries"),
        ("class_map", lambda c: [None] * len(c),
         "checkpoint class_map has None at index 0, not a nonempty string"),
        ("class_map", lambda c: [""] + c[1:],
         "checkpoint class_map has '' at index 0, not a nonempty string"),
    ], ids=["vocab-int", "vocab-repeat", "tag_map-ints", "tag_map-FOO", "tag_map-repeat",
            "class_map-nulls", "class_map-empty"])
    def test_ill_typed_metadata_entry_detected(self, tmp_path, key, entries, message):
        _, _, _, _, _, path = self._saved(tmp_path)
        bad = str(tmp_path / "bad-entry.bin")
        self._mutate_meta(path, bad, lambda m: m.__setitem__(key, entries(m[key])))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(bad)
