"""Tokenization, BIO codec, span scoring, vocab, and corpus file round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hierex.data import (CLASS_NAMES, ENTITY_TYPES, Document, ParseError, Sentence,
                         TagSpan, Vocab, bio_decode, bio_encode, bio_repairs,
                         build_class_map, build_tag_map, build_vocab, encode_corpus,
                         gold_spans, load_corpus, save_corpus, span_prf,
                         split_sentences, tokenize)
from hierex.generator import generate_corpus
from hierex.linalg import ContractError


class TestTokenize:
    def test_pure_whitespace(self):
        assert tokenize("John Smith") == ["John", "Smith"]

    def test_trailing_periods(self):
        assert tokenize("vs. ACME Corp.") == ["vs", ".", "ACME", "Corp", "."]

    def test_parens_and_hyphen_survive(self):
        assert tokenize("(Case No. 12-345)") == ["(", "Case", "No", ".", "12-345", ")"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_repeated_detach(self):
        assert tokenize('("quoted")') == ["(", '"', "quoted", '"', ")"]

    def test_never_empty_tokens(self):
        for text in ("...", "a..b", '"\'().,;:?!', "  . "):
            assert all(tok for tok in tokenize(text))

    @given(st.text(alphabet=st.characters(codec="ascii", exclude_categories=["Cc"]),
                   max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_under_rejoin(self, text):
        toks = tokenize(text)
        assert all(toks)
        assert tokenize(" ".join(toks)) == toks


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_before_digit_stays_joined(self):
        assert split_sentences("No. 5 is cited.") == ["No. 5 is cited."]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []

    def test_question_and_bang(self):
        assert split_sentences("Really? Yes! Done.") == ["Really?", "Yes!", "Done."]

    def test_no_terminal_punctuation(self):
        assert split_sentences("no punctuation here") == ["no punctuation here"]

    def test_lowercase_continuation(self):
        assert split_sentences("v. smith continued. The end.") == \
            ["v. smith continued.", "The end."]

    def test_caption_stays_whole(self):
        caption = "Jane Roe v. John Doe, Superior Court of Hartley County, No. 40-656."
        assert split_sentences(caption) == [caption]
        assert split_sentences("Roe vs. Doe filed. The end.") == \
            ["Roe vs. Doe filed.", "The end."]

    def test_generated_documents_never_split_after_caption_word(self):
        # Seed-42 documents, tokens joined by spaces, re-split into exactly
        # their gold sentences: never after "v ." or "vs .".
        for doc in generate_corpus(300, 42):
            pieces = split_sentences(" ".join(t for s in doc.sentences for t in s.tokens))
            assert not any(p.split()[-2:] in (["v", "."], ["vs", "."]) for p in pieces)
            assert pieces == [" ".join(s.tokens) for s in doc.sentences]


class TestBioCodec:
    def test_empty_spans(self):
        assert bio_encode([], 3) == ["O", "O", "O"]

    def test_simple_span(self):
        assert bio_encode([TagSpan(0, 2, "PLA")], 3) == ["B-PLA", "I-PLA", "O"]

    def test_two_spans(self):
        tags = bio_encode([TagSpan(0, 1, "PLA"), TagSpan(2, 3, "DEF")], 3)
        assert tags == ["B-PLA", "O", "B-DEF"]

    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            bio_encode([TagSpan(0, 2, "PLA"), TagSpan(1, 3, "DEF")], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            bio_encode([TagSpan(1, 5, "PLA")], 3)

    def test_decode_basic(self):
        spans = bio_decode(["B-PLA", "I-PLA", "O", "B-DEF"])
        assert spans == [TagSpan(0, 2, "PLA"), TagSpan(3, 4, "DEF")]

    def test_decode_repairs_dangling_inside(self):
        assert bio_decode(["O", "I-COURT"]) == [TagSpan(1, 2, "COURT")]

    def test_decode_label_switch_starts_new_span(self):
        assert bio_decode(["B-PLA", "I-DEF"]) == [TagSpan(0, 1, "PLA"), TagSpan(1, 2, "DEF")]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError):
            bio_decode(["B-PLA", "Q-DEF"])
        with pytest.raises(ParseError):
            bio_decode(["BPLA"])

    def test_unknown_label_rejected_when_inventory_given(self):
        with pytest.raises(ParseError):
            bio_decode(["B-WIDGET"], known_labels=set(ENTITY_TYPES))

    def test_repair_counter(self):
        assert bio_repairs(["B-PLA", "I-PLA", "O"]) == 0
        assert bio_repairs(["O", "I-PLA"]) == 1
        assert bio_repairs(["B-PLA", "I-DEF", "I-DEF"]) == 1


@st.composite
def span_layouts(draw):
    length = draw(st.integers(1, 12))
    n_attempts = draw(st.integers(0, 4))
    spans, occupied = [], [False] * length
    for _ in range(n_attempts):
        start = draw(st.integers(0, length - 1))
        end = draw(st.integers(start + 1, length))
        if any(occupied[start:end]):
            continue
        for i in range(start, end):
            occupied[i] = True
        spans.append(TagSpan(start, end, draw(st.sampled_from(ENTITY_TYPES))))
    return length, spans


class TestCodecRoundTrip:
    @given(span_layouts())
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_round_trip(self, layout):
        length, spans = layout
        tags = bio_encode(spans, length)
        assert bio_repairs(tags) == 0
        assert bio_decode(tags) == sorted(spans, key=lambda s: s.start)


class TestSpanPrf:
    def test_exact_agreement(self):
        spans = [[TagSpan(0, 2, "PLA")], [TagSpan(1, 3, "DEF")]]
        out = span_prf(spans, spans)
        assert out.micro.precision == out.micro.recall == out.micro.f1 == 1.0

    def test_hand_counts(self):
        pred = [[TagSpan(0, 1, "PLA")]]
        gold = [[TagSpan(0, 1, "PLA"), TagSpan(3, 4, "DEF")]]
        out = span_prf(pred, gold)
        assert out.micro.precision == 1.0
        assert out.micro.recall == 0.5
        assert out.micro.f1 == pytest.approx(2.0 / 3.0)

    def test_empty_empty_convention(self):
        out = span_prf([[]], [[]])
        assert out.micro.precision == out.micro.recall == out.micro.f1 == 1.0

    def test_empty_pred_nonempty_gold(self):
        out = span_prf([[]], [[TagSpan(0, 1, "PLA")]])
        assert out.micro.precision == 0.0
        assert out.micro.recall == 0.0
        assert out.micro.f1 == 0.0

    def test_boundary_mismatch_not_credited(self):
        out = span_prf([[TagSpan(0, 2, "PLA")]], [[TagSpan(0, 1, "PLA")]])
        assert out.micro.f1 == 0.0

    def test_label_mismatch_not_credited(self):
        out = span_prf([[TagSpan(0, 1, "PLA")]], [[TagSpan(0, 1, "DEF")]])
        assert out.micro.f1 == 0.0

    def test_per_label_breakdown(self):
        pred = [[TagSpan(0, 1, "PLA"), TagSpan(2, 3, "DEF")]]
        gold = [[TagSpan(0, 1, "PLA"), TagSpan(4, 5, "DEF")]]
        out = span_prf(pred, gold)
        assert out.per_label["PLA"].f1 == 1.0
        assert out.per_label["DEF"].f1 == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ContractError):
            span_prf([[]], [[], []])

    @given(span_layouts())
    @settings(max_examples=100, deadline=None)
    def test_self_score_is_one(self, layout):
        _, spans = layout
        assert span_prf([spans], [spans]).micro.f1 == 1.0


def _doc(doc_id, sents):
    return Document(doc_id, [Sentence(tokens=t, tags=g, class_name=c)
                             for t, g, c in sents])


class TestVocabAndMaps:
    def test_reserved_entries(self):
        docs = [_doc("d1", [(["a", "b", "a"], ["O", "O", "O"], "FACTS")])]
        v = build_vocab(docs)
        assert v.id_to_token[:2] == ["<pad>", "<unk>"]
        assert v.id("a") == 2  # frequency 2 beats b
        assert v.id("b") == 3

    def test_min_count_threshold(self):
        docs = [_doc("d1", [(["a", "a", "a", "b"], None, None)])]
        v = build_vocab(docs, min_count=2)
        assert len(v) == 3 and v.id("a") == 2

    def test_unseen_maps_to_unk(self):
        docs = [_doc("d1", [(["a"], None, None)])]
        assert build_vocab(docs).id("zzz") == 1

    def test_frequency_tie_lexicographic(self):
        docs = [_doc("d1", [(["b", "a", "b", "a"], None, None)])]
        v = build_vocab(docs)
        assert v.id("a") == 2 and v.id("b") == 3

    def test_rebuild_identical(self):
        docs = [_doc("d1", [(["x", "y", "x"], None, None)])]
        assert build_vocab(docs).id_to_token == build_vocab(docs).id_to_token

    def test_tag_map_structure(self):
        docs = [_doc("d1", [(["a", "b"], ["B-PLA", "O"], "FACTS"),
                            (["c"], ["B-DATE"], "OTHER")])]
        tags = build_tag_map(docs)
        assert tags[0] == "O"
        assert tags == ["O", "B-DATE", "I-DATE", "B-PLA", "I-PLA"]

    def test_class_map_sorted(self):
        docs = [_doc("d1", [(["a"], None, "RULING"), (["b"], None, "CAPTION")])]
        assert build_class_map(docs) == ["CAPTION", "RULING"]

    def test_encode_fills_ids(self):
        docs = [_doc("d1", [(["a", "q"], ["B-PLA", "O"], "FACTS")])]
        vocab = build_vocab(docs)
        encode_corpus(docs, vocab, ["O", "B-PLA", "I-PLA"], ["FACTS"])
        sent = docs[0].sentences[0]
        assert sent.token_ids == [vocab.id("a"), vocab.id("q")]
        assert sent.tag_ids == [1, 0]
        assert sent.class_id == 0

    def test_encode_unknown_tag_fails(self):
        docs = [_doc("d1", [(["a"], ["B-AMT"], "FACTS")])]
        with pytest.raises(ParseError, match="B-AMT"):
            encode_corpus(docs, build_vocab(docs), ["O"], ["FACTS"])


class TestCorpusIO:
    def _sample_docs(self):
        return [
            _doc("doc-1", [(["John", "sued", "."], ["B-PLA", "O", "O"], "CAPTION"),
                           (["On", "May", "1"], ["O", "B-DATE", "I-DATE"], "FACTS")]),
            _doc("doc-2", [(["Denied", "."], ["O", "O"], "RULING")]),
        ]

    def test_round_trip_structurally_identical(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        docs = self._sample_docs()
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert loaded == docs

    def test_round_trip_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_corpus(self._sample_docs(), p1)
        save_corpus(load_corpus(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(str(path)) == []

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","sentences":[{"tokens":["x"]}]}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(str(path))

    def test_short_tags_rejected_with_line(self, tmp_path):
        rec = {"id": "d", "sentences": [{"tokens": ["a", "b"], "tags": ["O"],
                                         "class": "FACTS"}]}
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(str(path))

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        path.write_text('{"sentences":[{"tokens":["x"]}]}\n')
        with pytest.raises(ParseError, match="'id'"):
            load_corpus(str(path))

    def test_unknown_class_rejected_by_default(self, tmp_path):
        rec = {"id": "d", "sentences": [{"tokens": ["a"], "class": "PREAMBLE"}]}
        path = tmp_path / "cls.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="PREAMBLE"):
            load_corpus(str(path))
        docs = load_corpus(str(path), known_classes=None)
        assert docs[0].sentences[0].class_name == "PREAMBLE"

    def test_gold_spans_reads_tags(self):
        sent = Sentence(tokens=["a", "b"], tags=["B-AMT", "I-AMT"])
        assert gold_spans(sent) == [TagSpan(0, 2, "AMT")]
        with pytest.raises(ContractError):
            gold_spans(Sentence(tokens=["a"]))


class TestInventories:
    def test_fixed_sizes(self):
        assert len(ENTITY_TYPES) == 6
        assert len(CLASS_NAMES) == 5
        assert set(CLASS_NAMES) == {"CAPTION", "FACTS", "CLAIM", "RULING", "OTHER"}
