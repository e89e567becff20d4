"""Hierarchical model: parameter inventory, wiring, joint loss, gradients."""

import math

import numpy as np
import pytest

from hierex.hier_model import DocForward, HierConfig, HierModel, expected_param_count
from hierex.crf import viterbi
from hierex.linalg import ContractError, Rng, glorot_init
from hierex.nn import grad_check

TOY = dict(vocab_size=20, embed_dim=4, sent_hidden=3, doc_hidden=3,
           tag_count=5, class_count=3)


def toy_model(mode="crf", seed=11, **overrides):
    cfg = HierConfig(tagger_mode=mode, **{**TOY, **overrides})
    return HierModel(cfg, Rng(seed))


def toy_batch(seed=11, n_sents=2):
    rng = Rng(seed)
    id_seqs, gold_tags, gold_classes = [], [], []
    for _ in range(n_sents):
        n = 3 + rng.below(4)
        id_seqs.append([rng.below(TOY["vocab_size"]) for _ in range(n)])
        gold_tags.append([rng.below(TOY["tag_count"]) for _ in range(n)])
        gold_classes.append(rng.below(TOY["class_count"]))
    return id_seqs, gold_tags, gold_classes


class TestParamInventory:
    # Hand tally for the toy dims: embed 20*4=80; sentence GRU pair
    # 2*3*(3*4+3*3+3)=144; document GRU pair 2*3*(3*6+3*3+3)=180;
    # emissions 5*12+5=65; classifier 3*6+3=21; CRF adds 25+10.
    def test_toy_counts_frozen(self):
        assert expected_param_count(HierConfig(tagger_mode="softmax", **TOY)) == 490
        assert expected_param_count(HierConfig(tagger_mode="crf", **TOY)) == 525

    @pytest.mark.parametrize("mode", ["softmax", "crf"])
    def test_actual_matches_closed_form(self, mode):
        model = toy_model(mode)
        assert model.param_count() == expected_param_count(model.cfg)

    def test_each_gru_cell_is_three_tensors(self):
        names = [p.name for p in toy_model("crf").params()]
        assert len(names) == 20
        for cell in ("sent_fwd", "sent_bwd", "doc_fwd", "doc_bwd"):
            assert [n for n in names if n.startswith(cell + ".")] == [
                f"{cell}.W", f"{cell}.U", f"{cell}.b"]

    def test_names_unique(self):
        names = [p.name for p in toy_model("crf").params()]
        assert len(names) == len(set(names))

    def test_crf_mode_owns_transition_tensors(self):
        names = {p.name for p in toy_model("crf").params()}
        assert {"crf.trans", "crf.start", "crf.end"} <= names
        assert not {"crf.trans"} & {p.name for p in toy_model("softmax").params()}


class TestConfig:
    def test_round_trip(self):
        cfg = HierConfig(tagger_mode="softmax", lambda_sent=0.25,
                         ablate_doc_context=True, **TOY)
        assert HierConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("bad", [
        dict(vocab_size=0), dict(embed_dim=-1), dict(tag_count=0),
        dict(tagger_mode="mrf"), dict(lambda_sent=-0.5),
        dict(lambda_sent=float("nan")),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ContractError):
            HierConfig(**{**TOY, **bad}).validate()


class TestForwardShapes:
    def test_shapes_track_lengths(self):
        model = toy_model()
        lens = [3, 1, 5]
        id_seqs = [[0] * n for n in lens]
        fwd = model.forward_document(id_seqs)
        h2, d2 = 2 * TOY["sent_hidden"], 2 * TOY["doc_hidden"]
        assert [u.shape for u in fwd.split(fwd.token_rows)] == [(n, h2) for n in lens]
        assert fwd.sent_vecs.shape == (3, h2)
        assert fwd.doc_vecs.shape == (3, d2)
        assert fwd.class_logits.shape == (3, TOY["class_count"])
        assert [f.shape for f in fwd.split(fwd.feat_rows)] == [(n, h2 + d2) for n in lens]
        assert [e.shape for e in fwd.split(fwd.emission_rows)] == [(n, TOY["tag_count"]) for n in lens]

    def test_empty_document_rejected(self):
        with pytest.raises(ContractError):
            toy_model().forward_document([])

    def test_empty_sentence_rejected(self):
        with pytest.raises(ContractError, match="sentence 1"):
            toy_model().forward_document([[1, 2], []])

    def test_token_reps_ignore_neighbor_sentences(self):
        # The sentence encoder sees only its own tokens; document context
        # enters later, through the feature concat.
        model = toy_model()
        a = model.forward_document([[1, 2, 3], [4, 5]])
        b = model.forward_document([[1, 2, 3], [6, 7, 8, 9]])
        assert np.array_equal(a.token_rows[:3], b.token_rows[:3])
        assert not np.array_equal(a.emission_rows[:3], b.emission_rows[:3])

    def test_doc_context_reaches_every_token(self):
        model = toy_model()
        fwd = model.forward_document([[1, 2, 3], [4, 5]])
        h2 = 2 * TOY["sent_hidden"]
        for i, f in enumerate(fwd.split(fwd.feat_rows)):
            for t in range(f.shape[0]):
                assert np.array_equal(f[t, h2:], fwd.doc_vecs[i])


class TestAblation:
    def test_zeroes_context_block_only(self):
        full = toy_model(seed=3)
        cut = toy_model(seed=3, ablate_doc_context=True)
        ids = [[1, 2, 3], [4, 5]]
        ff, fc = full.forward_document(ids), cut.forward_document(ids)
        h2 = 2 * TOY["sent_hidden"]
        assert np.all(fc.feat_rows[:, h2:] == 0.0)
        assert np.array_equal(ff.token_rows, fc.token_rows)
        # The sentence classifier still sees document context either way.
        assert np.array_equal(ff.class_logits, fc.class_logits)
        assert not np.array_equal(ff.emission_rows[:3], fc.emission_rows[:3])


class TestJointLoss:
    @pytest.mark.parametrize("mode", ["softmax", "crf"])
    def test_zero_params_give_uniform_loss(self, mode):
        # All-zero parameters make every tag and class equally likely, so the
        # loss is exactly ln K + lambda * ln C regardless of the input.
        cfg = HierConfig(tagger_mode=mode, lambda_sent=0.5, **TOY)
        model = HierModel(cfg, rng=None)
        ids, tags, classes = toy_batch(seed=4)
        loss = model.loss_document(ids, tags, classes)
        assert loss == pytest.approx(math.log(5) + 0.5 * math.log(3), abs=1e-12)

    def test_lambda_zero_drops_class_term(self):
        cfg = HierConfig(tagger_mode="crf", lambda_sent=0.0, **TOY)
        model = HierModel(cfg, rng=None)
        ids, tags, classes = toy_batch(seed=4)
        assert model.loss_document(ids, tags, classes) == pytest.approx(
            math.log(5), abs=1e-12)

    def test_lambda_scales_class_term_linearly(self):
        ids, tags, classes = toy_batch(seed=8)
        losses = {}
        for lam in (0.0, 0.5, 1.0):
            model = toy_model(seed=8, lambda_sent=lam)
            losses[lam] = model.loss_document(ids, tags, classes)
        assert losses[1.0] - losses[0.5] == pytest.approx(
            losses[0.5] - losses[0.0], rel=1e-12)

    def test_grads_accumulate_across_calls(self):
        model = toy_model(seed=5)
        ids, tags, classes = toy_batch(seed=5)
        model.loss_document(ids, tags, classes)
        once = [p.grad.copy() for p in model.params()]
        model.loss_document(ids, tags, classes)
        for g1, p in zip(once, model.params()):
            assert np.allclose(2.0 * g1, p.grad, rtol=0, atol=1e-15)

    def test_misaligned_gold_rejected(self):
        model = toy_model()
        with pytest.raises(ContractError):
            model.loss_document([[1, 2]], [[0]], [0])
        with pytest.raises(ContractError):
            model.loss_document([[1, 2]], [[0, 1]], [None])
        with pytest.raises(ContractError):
            model.loss_document([[1, 2]], [[0, 1], [0]], [0, 0])


class TestGradients:
    @pytest.mark.parametrize("mode", ["softmax", "crf"])
    def test_full_model_grad_check(self, mode):
        rng = Rng(11)
        model = toy_model(mode, seed=11)
        ids, tags, classes = toy_batch(seed=11)
        report = grad_check(lambda: model.loss_document(ids, tags, classes),
                            model.params(), eps=1e-5, sample=36, rng=rng)
        assert report.max_rel < 1e-4, f"{mode}: {report.max_rel:.3e}"

    def test_ablated_grad_check(self):
        # With context ablated the doc GRU only feeds the classifier, so some
        # of its gate gradients sit near the central-difference noise floor;
        # accept a tiny absolute error where the relative one is undefined.
        model = toy_model("crf", seed=6, ablate_doc_context=True)
        ids, tags, classes = toy_batch(seed=6)

        def loss():
            return model.loss_document(ids, tags, classes)

        model.zero_grads()
        loss()
        analytic = {p.name: p.grad.copy() for p in model.params()}
        rng, eps = Rng(6), 1e-5
        for p in model.params():
            for _ in range(6):
                r = rng.below(p.value.shape[0])
                c = rng.below(p.value.shape[1])
                old = p.value[r, c]
                p.value[r, c] = old + eps
                model.zero_grads()
                up = loss()
                p.value[r, c] = old - eps
                model.zero_grads()
                down = loss()
                p.value[r, c] = old
                numeric = (up - down) / (2.0 * eps)
                a = analytic[p.name][r, c]
                rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
                assert rel < 1e-4 or abs(a - numeric) < 1e-8, \
                    f"{p.name}[{r},{c}]: analytic {a:.3e} numeric {numeric:.3e}"
        model.zero_grads()


class TestPredict:
    def test_repeat_calls_identical(self):
        model = toy_model(seed=9)
        ids = [[1, 2, 3], [4, 5]]
        a, b = model.predict_document(ids), model.predict_document(ids)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])

    def test_independent_of_earlier_documents(self):
        # Sentences are batched within one document only, so no earlier
        # document can change a later one's bytes.
        model = toy_model(seed=9)
        doc = [[1, 2, 3], [4], [5, 6, 7]]
        fresh = model.predict_document(doc)
        fresh_em = model.forward_document(doc).emission_rows
        for other in ([[8, 9]], [[1] * 7, [2, 3], [4]], [[5]]):
            model.predict_document(other)
            again = model.predict_document(doc)
            assert again[0] == fresh[0] and again[1] == fresh[1]
            assert again[2].tobytes() == fresh[2].tobytes()
            em = model.forward_document(doc).emission_rows
            assert em.tobytes() == fresh_em.tobytes()

    @pytest.mark.parametrize("ties", [False, True])
    def test_paths_equal_each_sentence_decoded_alone(self, ties):
        model = toy_model(seed=9)
        trans = glorot_init(5, 5, Rng(4)) * 2.0
        if ties:
            # Every emission row is [.5, 0, .5, .5, 0] and every transition
            # a multiple of 0.5, so Viterbi meets ties.
            model.emit_w.value[...] = 0.0
            model.emit_b.value[:, 0] = [0.5, 0.0, 0.5, 0.5, 0.0]
            trans = np.round(2.0 * trans) / 2.0
        model.crf.trans.value[...] = trans
        doc = [[1, 2, 3], [4], [5, 6, 7, 8], [9, 10, 11], [12, 13]]
        tag_ids, _, _ = model.predict_document(doc)
        fwd = model.forward_document(doc)
        alone = [viterbi(em, model.crf)[0] for em in fwd.split(fwd.emission_rows)]
        assert tag_ids == alone

    def test_paths_align_and_probs_normalize(self):
        model = toy_model(seed=9)
        ids = [[1, 2, 3], [4, 5]]
        tag_ids, class_ids, class_probs = model.predict_document(ids)
        assert [len(p) for p in tag_ids] == [3, 2]
        assert all(0 <= t < TOY["tag_count"] for p in tag_ids for t in p)
        assert all(0 <= c < TOY["class_count"] for c in class_ids)
        assert class_probs.shape == (2, TOY["class_count"])
        assert np.allclose(class_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_model_ties_break_low(self):
        model = HierModel(HierConfig(tagger_mode="softmax", **TOY), rng=None)
        tag_ids, class_ids, _ = model.predict_document([[1, 2], [3]])
        assert tag_ids == [[0, 0], [0]]
        assert class_ids == [0, 0]

    def test_modes_share_forward(self):
        soft = toy_model("softmax", seed=12)
        hard = toy_model("crf", seed=12)
        ids = [[1, 2, 3]]
        assert np.array_equal(soft.forward_document(ids).emission_rows,
                              hard.forward_document(ids).emission_rows)
