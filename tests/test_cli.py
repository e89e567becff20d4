"""End-to-end command-line behavior: flags, files, exit codes, streams."""

import io
import json
import os
import struct

import pytest

from hierex.cli import main
from hierex.train_eval import load_checkpoint

SMALL = ["--set", "embed_dim=8", "--set", "sent_hidden=8", "--set", "doc_hidden=8"]


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line for line in f.read().splitlines() if line]


@pytest.fixture(scope="module")
def arts(tmp_path_factory):
    """One generated corpus and one small trained model for the module."""
    root = tmp_path_factory.mktemp("cliwork")
    corpus = root / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--n", "10",
                 "--seed", "5", "--split", "0.8,0.2,0"]) == 0
    model = root / "model.bin"
    assert main(["train", "--train", str(corpus / "train.jsonl"),
                 "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
                 "--set", "max_epochs=3", *SMALL]) == 0
    return {"corpus": corpus, "model": str(model)}


class TestGenCorpus:
    def test_default_split_counts(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["gen-corpus", "--out", str(out), "--n", "100",
                     "--seed", "42"]) == 0
        assert capsys.readouterr().out.strip() == \
            "wrote 80 train / 10 dev / 10 test documents to " + str(out)
        assert len(read_lines(out / "train.jsonl")) == 80
        assert len(read_lines(out / "dev.jsonl")) == 10
        assert len(read_lines(out / "test.jsonl")) == 10

    def test_degenerate_split_writes_empty_files(self, tmp_path):
        out = tmp_path / "solo"
        assert main(["gen-corpus", "--out", str(out), "--n", "1",
                     "--seed", "0", "--split", "1,0,0"]) == 0
        assert len(read_lines(out / "train.jsonl")) == 1
        assert os.path.getsize(out / "dev.jsonl") == 0
        assert os.path.getsize(out / "test.jsonl") == 0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-corpus", "--out", str(out), "--n", "20",
                         "--seed", "9"]) == 0
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_creates_nested_directories(self, tmp_path):
        out = tmp_path / "deep" / "er" / "c"
        assert main(["gen-corpus", "--out", str(out), "--n", "2",
                     "--seed", "1", "--split", "1,0,0"]) == 0
        assert (out / "train.jsonl").exists()

    @pytest.mark.parametrize("split", ["0.5,0.5,0.5", "0.8,0.1", "a,b,c", "-1,1,1"])
    def test_bad_split_is_usage_error(self, tmp_path, split):
        assert main(["gen-corpus", "--out", str(tmp_path / "x"), "--n", "4",
                     "--seed", "0", "--split", split]) == 1

    def test_nonpositive_n_is_usage_error(self, tmp_path):
        assert main(["gen-corpus", "--out", str(tmp_path / "x"), "--n", "0",
                     "--seed", "0"]) == 1


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["gradcheck", "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert main(["train", "--train", "x.jsonl"]) == 1

    def test_non_integer_argument(self):
        assert main(["gradcheck", "--seed", "abc"]) == 1

    @pytest.mark.parametrize("pair", ["nonsense=1", "lr", "ablate_doc_context=maybe",
                                      "max_epochs=three"])
    def test_bad_set_pairs(self, tmp_path, pair, arts):
        corpus = arts["corpus"]
        assert main(["train", "--train", str(corpus / "train.jsonl"),
                     "--dev", str(corpus / "dev.jsonl"),
                     "--out-model", str(tmp_path / "m.bin"), "--set", pair]) == 1

    @pytest.mark.parametrize("flags", [["--sample", "0"], ["--sample", "-3"],
                                       ["--eps", "0"], ["--eps", "nan"]])
    def test_bad_gradcheck_values(self, flags, capsys):
        assert main(["gradcheck", *flags]) == 1
        assert "must be" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_history_report(self, tmp_path, capsys, arts):
        corpus = arts["corpus"]
        model = tmp_path / "m.bin"
        rc = main(["train", "--train", str(corpus / "train.jsonl"),
                   "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
                   "--set", "max_epochs=1", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch   1  loss " in out
        assert f"saved model to {model} (epoch 1)" in out
        assert model.exists()
        rows = [json.loads(s) for s in read_lines(str(model) + ".history.jsonl")]
        assert rows[0]["epoch"] == 1 and "dev_f1" in rows[0]
        report = json.loads(open(str(model) + ".report.json").read())
        assert set(report) == {"token_acc", "span", "class_acc", "docs"}

    def test_empty_dev_warns_and_skips_report(self, tmp_path, capsys, arts):
        corpus = arts["corpus"]
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        model = tmp_path / "m.bin"
        rc = main(["train", "--train", str(corpus / "train.jsonl"),
                   "--dev", str(empty), "--out-model", str(model),
                   "--set", "max_epochs=1", *SMALL])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no dev documents" in captured.err
        assert not os.path.exists(str(model) + ".report.json")
        rows = [json.loads(s) for s in read_lines(str(model) + ".history.jsonl")]
        assert "warning" in rows[0]

    def test_model_knobs_set_the_model_config(self, tmp_path, capsys, arts):
        # tagger_mode and lambda_sent live on the model config alone.
        corpus = arts["corpus"]
        model = tmp_path / "m.bin"
        assert main(["train", "--train", str(corpus / "train.jsonl"),
                     "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
                     "--set", "tagger_mode=softmax", "--set", "lambda_sent=0.25",
                     "--set", "max_epochs=1", *SMALL]) == 0
        cfg = load_checkpoint(str(model))[0].cfg
        assert (cfg.tagger_mode, cfg.lambda_sent) == ("softmax", 0.25)
        capsys.readouterr()

    @pytest.mark.parametrize("pair", ["tagger_mode=hmm", "lambda_sent=-1",
                                      "lambda_sent=nan"])
    def test_bad_model_knob_is_input_error(self, tmp_path, capsys, arts, pair):
        corpus = arts["corpus"]
        assert main(["train", "--train", str(corpus / "train.jsonl"),
                     "--dev", str(corpus / "dev.jsonl"),
                     "--out-model", str(tmp_path / "m.bin"), "--set", pair]) == 2
        assert "HierConfig" in capsys.readouterr().err

    def test_config_file_with_set_override(self, tmp_path, capsys, arts):
        corpus = arts["corpus"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 5, "embed_dim": 8,
                                   "sent_hidden": 8, "doc_hidden": 8}))
        model = tmp_path / "m.bin"
        rc = main(["train", "--train", str(corpus / "train.jsonl"),
                   "--dev", str(corpus / "dev.jsonl"), "--out-model", str(model),
                   "--config", str(cfg), "--set", "max_epochs=1"])
        assert rc == 0
        rows = [json.loads(s) for s in read_lines(str(model) + ".history.jsonl")]
        assert [r["epoch"] for r in rows if "epoch" in r] == [1]
        capsys.readouterr()

    @pytest.mark.parametrize("payload,code", [
        ('{"max_epochs": "nope"}', 2),
        ('{"mystery_knob": 1}', 2),
        ('[1, 2]', 2),
        ('{oops', 2),
    ])
    def test_bad_config_file(self, tmp_path, arts, payload, code):
        corpus = arts["corpus"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload)
        assert main(["train", "--train", str(corpus / "train.jsonl"),
                     "--dev", str(corpus / "dev.jsonl"),
                     "--out-model", str(tmp_path / "m.bin"),
                     "--config", str(cfg)]) == code

    def test_missing_train_file(self, tmp_path):
        assert main(["train", "--train", str(tmp_path / "ghost.jsonl"),
                     "--dev", str(tmp_path / "ghost.jsonl"),
                     "--out-model", str(tmp_path / "m.bin")]) == 2

    def test_malformed_corpus_names_line(self, tmp_path, capsys, arts):
        corpus = arts["corpus"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = main(["train", "--train", str(bad),
                   "--dev", str(corpus / "dev.jsonl"),
                   "--out-model", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_corpus_without_gold_rejected(self, tmp_path, arts):
        corpus = arts["corpus"]
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps(
            {"id": "d", "sentences": [{"tokens": ["Hi", "."]}]}) + "\n")
        assert main(["train", "--train", str(bare),
                     "--dev", str(corpus / "dev.jsonl"),
                     "--out-model", str(tmp_path / "m.bin")]) == 2

    def test_dev_with_unknown_tag_rejected(self, tmp_path, arts):
        corpus = arts["corpus"]
        weird = tmp_path / "weird-dev.jsonl"
        weird.write_text(json.dumps(
            {"id": "d", "sentences": [{"tokens": ["x"], "tags": ["B-WIDGET"],
                                       "class": "FACTS"}]}) + "\n")
        assert main(["train", "--train", str(corpus / "train.jsonl"),
                     "--dev", str(weird), "--out-model", str(tmp_path / "m.bin"),
                     "--set", "max_epochs=1", *SMALL]) == 2

    def test_rerun_byte_identical(self, tmp_path, capsys, arts):
        corpus = arts["corpus"]
        outs = []
        for name in ("r1.bin", "r2.bin"):
            model = tmp_path / name
            assert main(["train", "--train", str(corpus / "train.jsonl"),
                         "--dev", str(corpus / "dev.jsonl"),
                         "--out-model", str(model),
                         "--set", "max_epochs=2", *SMALL]) == 0
            outs.append(model)
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert open(str(outs[0]) + ".history.jsonl").read() == \
            open(str(outs[1]) + ".history.jsonl").read()


class TestEval:
    def test_report_to_stdout_and_file(self, tmp_path, capsys, arts):
        report = tmp_path / "r.json"
        rc = main(["eval", "--model", arts["model"],
                   "--data", str(arts["corpus"] / "train.jsonl"),
                   "--report", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = json.loads(out)
        assert set(parsed) == {"token_acc", "span", "class_acc", "docs"}
        assert json.loads(report.read_text()) == parsed

    def test_missing_model_file(self, tmp_path, arts):
        assert main(["eval", "--model", str(tmp_path / "ghost.bin"),
                     "--data", str(arts["corpus"] / "train.jsonl")]) == 2

    def test_garbage_checkpoint(self, tmp_path, capsys, arts):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"not a checkpoint at all")
        rc = main(["eval", "--model", str(junk),
                   "--data", str(arts["corpus"] / "train.jsonl")])
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    def test_empty_data_rejected(self, tmp_path, arts):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["eval", "--model", arts["model"], "--data", str(empty)]) == 2


class TestExtract:
    def _raw_lines(self):
        return [
            json.dumps({"id": "r1", "text": "Jane Roe filed suit against "
                                            "ACME Corp. The court awarded $5,000."}),
            json.dumps({"id": "r2", "text": "The petition was denied."}),
        ]

    def test_file_to_file(self, tmp_path, arts):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(self._raw_lines()) + "\n")
        dst = tmp_path / "out.jsonl"
        assert main(["extract", "--model", arts["model"], "--input", str(src),
                     "--out", str(dst)]) == 0
        recs = [json.loads(s) for s in read_lines(dst)]
        assert [r["id"] for r in recs] == ["r1", "r2"]
        for rec in recs:
            for sent in rec["sentences"]:
                assert isinstance(sent["class"], str)
                for ent in sent["entities"]:
                    assert set(ent) == {"start", "end", "label", "text"}
                    assert 0 <= ent["start"] < ent["end"]

    def test_stdin_to_stdout(self, capsys, monkeypatch, arts):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(self._raw_lines()) + "\n"))
        assert main(["extract", "--model", arts["model"], "--input", "-"]) == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines() if s]
        assert [r["id"] for r in lines] == ["r1", "r2"]

    def test_bad_line_reported_and_skipped(self, tmp_path, capsys, arts):
        src = tmp_path / "mixed.jsonl"
        src.write_text("{nope\n" + self._raw_lines()[0] + "\n"
                       + json.dumps({"id": "blank", "text": "   "}) + "\n")
        dst = tmp_path / "out.jsonl"
        assert main(["extract", "--model", arts["model"], "--input", str(src),
                     "--out", str(dst)]) == 0
        assert [json.loads(s)["id"] for s in read_lines(dst)] == ["r1"]
        errs = [json.loads(s) for s in capsys.readouterr().err.splitlines() if s]
        assert [e["line"] for e in errs] == [1, 3]
        assert errs[1]["id"] == "blank"

    def test_nothing_extracted_is_exit_4(self, tmp_path, capsys, arts):
        src = tmp_path / "allbad.jsonl"
        src.write_text("{nope\n{\"id\": 5}\n")
        assert main(["extract", "--model", arts["model"], "--input", str(src),
                     "--out", str(tmp_path / "o.jsonl")]) == 4
        empty = tmp_path / "void.jsonl"
        empty.write_text("")
        assert main(["extract", "--model", arts["model"], "--input", str(empty),
                     "--out", str(tmp_path / "o2.jsonl")]) == 4
        capsys.readouterr()

    @staticmethod
    def _mutated_model(tmp_path, arts, key, fn):
        """A copy of the module's model whose metadata entry `key` is fn(entry)."""
        data = open(arts["model"], "rb").read()
        version, meta_len = struct.unpack("<II", data[4:12])
        meta = json.loads(data[12: 12 + meta_len])
        meta[key] = fn(meta[key])
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = tmp_path / f"bad-{key}.bin"
        path.write_bytes(data[:4] + struct.pack("<II", version, len(blob)) + blob
                         + data[12 + meta_len:])
        return str(path)

    @pytest.mark.parametrize("key,fn", [
        ("tag_map", lambda tags: tags[:3]),
        ("vocab", lambda words: words + [f"extra{i}" for i in range(5)]),
    ])
    def test_inconsistent_checkpoint_fails_before_first_record(self, tmp_path, capsys,
                                                                 arts, key, fn):
        model = self._mutated_model(tmp_path, arts, key, fn)
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(self._raw_lines()) + "\n")
        assert main(["extract", "--model", model, "--input", str(src)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"checkpoint {key} has" in err

    def test_pretokenized_records(self, tmp_path, arts):
        src = tmp_path / "tok.jsonl"
        src.write_text(json.dumps(
            {"id": "p1", "sentences": [
                {"tokens": ["John", "Smith", "sued", "ACME", "Corp", "."]},
                {"tokens": ["The", "court", "denied", "the", "motion", "."]},
            ]}) + "\n")
        dst = tmp_path / "out.jsonl"
        assert main(["extract", "--model", arts["model"], "--input", str(src),
                     "--out", str(dst), "--pretokenized"]) == 0
        rec = json.loads(read_lines(dst)[0])
        assert len(rec["sentences"]) == 2

    def test_missing_input_file(self, tmp_path, arts):
        assert main(["extract", "--model", arts["model"],
                     "--input", str(tmp_path / "ghost.jsonl")]) == 2

    def test_deterministic_output(self, tmp_path, arts):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(self._raw_lines()) + "\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for dst in (a, b):
            assert main(["extract", "--model", arts["model"], "--input", str(src),
                         "--out", str(dst)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGradcheckCommand:
    def test_passes_and_prints_verdict(self, capsys):
        assert main(["gradcheck", "--sample", "9"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert "softmax  overall max_rel" in out
        assert "crf      overall max_rel" in out
