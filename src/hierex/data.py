"""Tokenization, BIO tag codec, span scoring, vocabulary, and corpus files.

The corpus file format is pre-tokenized JSONL, one document per line:

    {"id": "...", "sentences": [{"tokens": [...], "tags": [...], "class": "FACTS"}, ...]}

Tokens and tags are equal-length arrays of strings; tags follow the BIO
scheme ("O", "B-PLA", "I-PLA", ...). The format is language-agnostic, so a
differently-sourced corpus can be dropped in as long as it is pre-tokenized.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .linalg import ContractError


class ParseError(ValueError):
    """Malformed corpus or tag data."""


# Canonical label inventories for the lawsuit domain.
ENTITY_TYPES = ("PLA", "DEF", "COURT", "DATE", "AMT", "JUDGE")
CLASS_NAMES = ("CAPTION", "FACTS", "CLAIM", "RULING", "OTHER")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass
class Sentence:
    tokens: list[str]
    tags: list[str] | None = None
    class_name: str | None = None
    token_ids: list[int] | None = None
    tag_ids: list[int] | None = None
    class_id: int | None = None

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Document:
    doc_id: str
    sentences: list[Sentence]


@dataclass(frozen=True)
class TagSpan:
    """Half-open token interval [start, end) carrying an entity label."""

    start: int
    end: int
    label: str


# ---------------------------------------------------------------------------
# Tokenization and sentence splitting (for raw-text extraction input)
# ---------------------------------------------------------------------------

_DETACH = set('.,;:()"\'?!')


def tokenize(text: str) -> list[str]:
    """Whitespace split, then repeatedly detach leading/trailing punctuation.

    The detachable set is . , ; : ( ) " ' ? !  -- note '-' is not in it, so
    tokens like "12-345" stay whole. Case is preserved and no empty tokens
    are ever produced.
    """
    out: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in _DETACH:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in _DETACH:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(trail))
    return out


_CAPTION_WORDS = ("v", "vs")


def _after_caption_word(text: str, dot: int) -> bool:
    """Whether the '.' at text[dot] closes a case-caption "v" or "vs",
    written as "v." or, in space-joined tokens, as "v .".
    """
    end = dot
    while end > 0 and text[end - 1].isspace():
        end -= 1
    start = end
    while start > 0 and text[start - 1].isalpha():
        start -= 1
    return (text[start:end].lower() in _CAPTION_WORDS
            and (start == 0 or not text[start - 1].isalnum()))


def split_sentences(text: str) -> list[str]:
    """Split after '.', '?' or '!' when followed by whitespace and an
    uppercase letter, or by end of text. Delimiters stay with the left
    sentence, so "No. 5 is cited." stays in one piece. A '.' after the
    caption word "v" or "vs" never splits, so "Roe v. Doe" stays whole.
    """
    sents: list[str] = []
    buf: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        buf.append(ch)
        i += 1
        if ch in ".?!" and not (ch == "." and _after_caption_word(text, i - 1)):
            j = i
            while j < n and text[j].isspace():
                j += 1
            if j >= n or (j > i and text[j].isupper()):
                piece = "".join(buf).strip()
                if piece:
                    sents.append(piece)
                buf = []
                i = j
    tail = "".join(buf).strip()
    if tail:
        sents.append(tail)
    return sents


# ---------------------------------------------------------------------------
# BIO codec and span algebra
# ---------------------------------------------------------------------------

def bio_encode(spans: list[TagSpan], length: int) -> list[str]:
    """Render non-overlapping spans as BIO tags over ``length`` positions."""
    for s in spans:
        if not 0 <= s.start < s.end <= length:
            raise ContractError(f"bio_encode: span {s} out of range for length {length}")
    ordered = sorted(spans, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.start:
            raise ContractError(f"bio_encode: spans {a} and {b} overlap")
    tags = ["O"] * length
    for s in ordered:
        tags[s.start] = f"B-{s.label}"
        for t in range(s.start + 1, s.end):
            tags[t] = f"I-{s.label}"
    return tags


def _parse_tag(tag: str, position: int) -> tuple[str, str | None]:
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BI":
        return tag[0], tag[2:]
    raise ParseError(f"unknown tag string {tag!r} at position {position}")


def bio_decode(tags: list[str], known_labels: set[str] | None = None) -> list[TagSpan]:
    """Decode BIO tags into spans, repairing dangling I- tags.

    Repair rule: an I-X that does not directly continue a same-label run is
    treated as B-X. Pass ``known_labels`` to reject unexpected labels.
    """
    spans: list[TagSpan] = []
    start: int | None = None
    cur: str | None = None
    for t, tag in enumerate(tags):
        prefix, label = _parse_tag(tag, t)
        if label is not None and known_labels is not None and label not in known_labels:
            raise ParseError(f"unknown entity label {label!r} in tag {tag!r} at position {t}")
        if prefix == "O":
            if start is not None:
                spans.append(TagSpan(start, t, cur))
            start, cur = None, None
        elif prefix == "B" or cur != label:
            if start is not None:
                spans.append(TagSpan(start, t, cur))
            start, cur = t, label
        # else: I-label continuing the open run
    if start is not None:
        spans.append(TagSpan(start, len(tags), cur))
    return spans


def bio_repairs(tags: list[str]) -> int:
    """Count I- tags that do not continue a same-label run (decode repairs)."""
    repairs = 0
    cur: str | None = None
    for t, tag in enumerate(tags):
        prefix, label = _parse_tag(tag, t)
        if prefix == "I" and cur != label:
            repairs += 1
        cur = label if prefix != "O" else None
    return repairs


@dataclass
class PrfScores:
    precision: float
    recall: float
    f1: float
    correct: int
    n_pred: int
    n_gold: int


def _prf(correct: int, n_pred: int, n_gold: int) -> PrfScores:
    # Convention: both sides empty counts as perfect agreement.
    if n_pred == 0 and n_gold == 0:
        return PrfScores(1.0, 1.0, 1.0, correct, n_pred, n_gold)
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return PrfScores(p, r, f1, correct, n_pred, n_gold)


@dataclass
class SpanPrf:
    micro: PrfScores
    per_label: dict[str, PrfScores]


def span_prf(pred: list[list[TagSpan]], gold: list[list[TagSpan]]) -> SpanPrf:
    """Exact-match span scoring: a prediction counts iff start, end and
    label all equal a gold span in the same sentence. Micro scores pool
    counts over all sentences; a per-label breakdown uses the same rules.
    """
    if len(pred) != len(gold):
        raise ContractError(f"span_prf: {len(pred)} pred sentences vs {len(gold)} gold")
    correct = n_pred = n_gold = 0
    by_label: dict[str, list[int]] = {}
    for p_spans, g_spans in zip(pred, gold):
        p_set, g_set = set(p_spans), set(g_spans)
        correct += len(p_set & g_set)
        n_pred += len(p_set)
        n_gold += len(g_set)
        for s in p_set | g_set:
            c = by_label.setdefault(s.label, [0, 0, 0])
            c[0] += int(s in p_set and s in g_set)
            c[1] += int(s in p_set)
            c[2] += int(s in g_set)
    per_label = {lab: _prf(*counts) for lab, counts in sorted(by_label.items())}
    return SpanPrf(_prf(correct, n_pred, n_gold), per_label)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocab:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        """Token id, falling back to <unk> for unseen tokens."""
        return self.token_to_id.get(token, 1)


def build_vocab(docs: list[Document], min_count: int = 1) -> Vocab:
    """Frequency-thresholded vocab; ties order by (desc frequency, token)."""
    if not docs:
        raise ContractError("build_vocab: empty corpus")
    counts: Counter[str] = Counter()
    for doc in docs:
        for sent in doc.sentences:
            counts.update(sent.tokens)
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocab([PAD_TOKEN, UNK_TOKEN] + kept)


def build_tag_map(docs: list[Document]) -> list[str]:
    """Tag inventory in id order: 'O' is always id 0, then B-/I- pairs per
    entity label in sorted label order (both members even if only one occurs).
    """
    labels: set[str] = set()
    for doc in docs:
        for sent in doc.sentences:
            for t, tag in enumerate(sent.tags or []):
                _, label = _parse_tag(tag, t)
                if label is not None:
                    labels.add(label)
    tags = ["O"]
    for label in sorted(labels):
        tags.extend([f"B-{label}", f"I-{label}"])
    return tags


def build_class_map(docs: list[Document]) -> list[str]:
    """Sentence class inventory in id order (sorted names)."""
    names = {s.class_name for d in docs for s in d.sentences if s.class_name is not None}
    return sorted(names)


def encode_corpus(docs: list[Document], vocab: Vocab, tag_map: list[str],
                  class_map: list[str]) -> None:
    """Fill numeric ids in place; unseen tokens map to <unk>."""
    tag_ids = {t: i for i, t in enumerate(tag_map)}
    class_ids = {c: i for i, c in enumerate(class_map)}
    for doc in docs:
        for sent in doc.sentences:
            sent.token_ids = [vocab.id(t) for t in sent.tokens]
            if sent.tags is not None:
                try:
                    sent.tag_ids = [tag_ids[t] for t in sent.tags]
                except KeyError as e:
                    raise ParseError(f"doc {doc.doc_id}: tag {e.args[0]!r} not in tag map") from None
            if sent.class_name is not None:
                if sent.class_name not in class_ids:
                    raise ParseError(f"doc {doc.doc_id}: class {sent.class_name!r} not in class map")
                sent.class_id = class_ids[sent.class_name]


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------

def _doc_to_record(doc: Document) -> dict:
    return {
        "id": doc.doc_id,
        "sentences": [
            {"tokens": s.tokens, "tags": s.tags, "class": s.class_name}
            for s in doc.sentences
        ],
    }


def _record_to_doc(rec: dict, lineno: int, known_classes) -> Document:
    def fail(field_name: str, why: str):
        raise ParseError(f"line {lineno}: field {field_name!r} {why}")

    if not isinstance(rec, dict):
        raise ParseError(f"line {lineno}: record is not an object")
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        fail("id", "missing or not a nonempty string")
    raw_sents = rec.get("sentences")
    if not isinstance(raw_sents, list) or not raw_sents:
        fail("sentences", "missing or empty")
    sentences = []
    for s in raw_sents:
        tokens = s.get("tokens") if isinstance(s, dict) else None
        if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) and t for t in tokens):
            fail("tokens", "must be a nonempty list of nonempty strings")
        tags = s.get("tags")
        if tags is not None:
            if not isinstance(tags, list) or len(tags) != len(tokens):
                fail("tags", f"length {None if not isinstance(tags, list) else len(tags)} "
                             f"does not match {len(tokens)} tokens")
            for t, tag in enumerate(tags):
                _parse_tag(tag, t)  # structural validation
        cls = s.get("class")
        if cls is not None:
            if not isinstance(cls, str) or not cls:
                fail("class", "must be a nonempty string")
            if known_classes is not None and cls not in known_classes:
                fail("class", f"value {cls!r} not in the known set {sorted(known_classes)}")
        sentences.append(Sentence(tokens=list(tokens), tags=list(tags) if tags else None,
                                  class_name=cls))
    return Document(doc_id, sentences)


def load_corpus(path: str, known_classes=frozenset(CLASS_NAMES)) -> list[Document]:
    """Read a JSONL corpus; errors name the offending line and field.

    Pass known_classes=None to accept any class inventory.
    """
    docs: list[Document] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from None
            docs.append(_record_to_doc(rec, lineno, known_classes))
    return docs


def save_corpus(docs: list[Document], path: str) -> None:
    """Write one compact JSON record per document; round-trips losslessly."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(json.dumps(_doc_to_record(doc), ensure_ascii=False,
                               separators=(",", ":")))
            f.write("\n")


def gold_spans(sent: Sentence) -> list[TagSpan]:
    """Spans encoded by a sentence's gold BIO tags."""
    if sent.tags is None:
        raise ContractError("gold_spans: sentence has no tags")
    return bio_decode(sent.tags)
