"""Collection and topic ingestion, tokenization, passage splitting, query formation.

Document files are JSON-lines with fields ``id``, ``title``, ``text``, ``lang``
and an optional ``date``. Topic files are JSON-lines with ``topic_id``,
``title``, ``description`` and optional ``start_date`` / ``end_date``.
"""

from __future__ import annotations

import datetime as dt
import json
import re
import unicodedata
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, ValidationError, read_jsonl

QUERY_VARIANTS = ("T", "D", "TD")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ISO_DATE_RE = re.compile(r"^(\d{4})-(\d{1,2})(?:-(\d{1,2}))?$")
_SLASH_DATE_RE = re.compile(r"^(\d{1,2})(?:/(\d{1,2}))?/(\d{4})$")


def parse_date(value: str) -> dt.date:
    """Parse ``YYYY-MM-DD``, ``YYYY-MM``, ``M/D/YYYY`` or ``M/YYYY`` strings.

    Month-only values map to the first day of the month.
    """
    m = _ISO_DATE_RE.match(value.strip())
    if m:
        year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
    else:
        m = _SLASH_DATE_RE.match(value.strip())
        if not m:
            raise FormatError(f"unrecognized date {value!r}")
        month, year = int(m.group(1)), int(m.group(3))
        day = int(m.group(2)) if m.group(2) else 1
    try:
        return dt.date(year, month, day)
    except ValueError as exc:
        raise FormatError(f"invalid calendar date {value!r}: {exc}") from None


@dataclass(frozen=True)
class Tokenizer:
    """Deterministic text-to-token function.

    NFKC-normalizes, lowercases, and splits on runs of non-letter/digit
    characters. ``stemmer`` is applied to each token after splitting and
    defaults to identity; language-specific stemmers plug in here.
    """

    stemmer: Callable[[str], str] | None = None

    def __call__(self, text: str) -> list[str]:
        normalized = unicodedata.normalize("NFKC", text).lower()
        tokens = _TOKEN_RE.findall(normalized)
        if self.stemmer is not None:
            tokens = [self.stemmer(token) for token in tokens]
        return tokens


DEFAULT_TOKENIZER = Tokenizer()


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str
    lang: str
    date: dt.date | None = None


@dataclass(frozen=True)
class Topic:
    topic_id: str
    title: str
    description: str
    start_date: dt.date | None = None
    end_date: dt.date | None = None

    def __post_init__(self) -> None:
        if (
            self.start_date is not None
            and self.end_date is not None
            and self.start_date > self.end_date
        ):
            raise ValidationError(
                f"topic {self.topic_id}: start_date {self.start_date} after end_date {self.end_date}"
            )


@dataclass(frozen=True)
class Passage:
    """A token window ``[start, end)`` into a document's token sequence."""

    doc_id: str
    index: int
    start: int
    end: int


def passage_key(doc_id: str, index: int) -> str:
    return f"{doc_id}#{index}"


def parse_passage_key(key: str) -> tuple[str, int]:
    doc_id, _, index = key.rpartition("#")
    if not doc_id or not index.isdigit():
        raise FormatError(f"malformed passage key {key!r}")
    return doc_id, int(index)


def _require(record: dict, key: str, path: str | Path, lineno: int) -> str:
    if key not in record:
        raise FormatError(f"{path}:{lineno}: missing field {key!r}")
    value = record[key]
    if not isinstance(value, str):
        raise FormatError(f"{path}:{lineno}: field {key!r} must be a string")
    return value


def ingest_collection(
    path: str | Path, languages: Iterable[str] | None = None
) -> list[Document]:
    """Read a JSON-lines document file, rejecting duplicate ids.

    When ``languages`` is given, documents outside the declared set are
    rejected.
    """
    allowed = set(languages) if languages is not None else None
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path):
        doc_id = _require(record, "id", path, lineno)
        if doc_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        lang = _require(record, "lang", path, lineno)
        if allowed is not None and lang not in allowed:
            raise ValidationError(
                f"{path}:{lineno}: document {doc_id!r} has language {lang!r}, "
                f"expected one of {sorted(allowed)}"
            )
        date = None
        if record.get("date") is not None:
            date = parse_date(_require(record, "date", path, lineno))
        docs.append(
            Document(
                doc_id=doc_id,
                title=_require(record, "title", path, lineno),
                text=_require(record, "text", path, lineno),
                lang=lang,
                date=date,
            )
        )
    return docs


def ingest_topics(path: str | Path) -> list[Topic]:
    topics: list[Topic] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path):
        topic_id = _require(record, "topic_id", path, lineno)
        if topic_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate topic id {topic_id!r}")
        seen.add(topic_id)
        dates: dict[str, dt.date | None] = {}
        for key in ("start_date", "end_date"):
            dates[key] = (
                parse_date(_require(record, key, path, lineno))
                if record.get(key) is not None
                else None
            )
        topics.append(
            Topic(
                topic_id=topic_id,
                title=_require(record, "title", path, lineno),
                description=_require(record, "description", path, lineno),
                start_date=dates["start_date"],
                end_date=dates["end_date"],
            )
        )
    return topics


def write_collection(path: str | Path, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id, "title": doc.title, "text": doc.text, "lang": doc.lang}
            if doc.date is not None:
                record["date"] = doc.date.isoformat()
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_topics(path: str | Path, topics: Iterable[Topic]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for topic in topics:
            record: dict = {
                "topic_id": topic.topic_id,
                "title": topic.title,
                "description": topic.description,
            }
            if topic.start_date is not None:
                record["start_date"] = topic.start_date.isoformat()
            if topic.end_date is not None:
                record["end_date"] = topic.end_date.isoformat()
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def document_tokens(doc: Document, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> list[str]:
    """Token sequence of a document: title tokens followed by body tokens."""
    return tokenizer(doc.title) + tokenizer(doc.text)


def split_spans(num_tokens: int, max_len: int = 180, stride: int = 90) -> list[tuple[int, int]]:
    """Overlapping windows over ``[0, num_tokens)``.

    Windows start at 0, stride, 2*stride, ...; emission stops after the first
    window whose end reaches the token count, so no degenerate tail windows
    shorter than the stride are produced. An empty input yields no windows.
    """
    if max_len <= 0:
        raise ValidationError(f"max_len must be positive, got {max_len}")
    if stride <= 0 or stride > max_len:
        raise ValidationError(f"stride must be in (0, max_len], got {stride}")
    spans: list[tuple[int, int]] = []
    start = 0
    while start < num_tokens:
        end = min(start + max_len, num_tokens)
        spans.append((start, end))
        if end >= num_tokens:
            break
        start += stride
    return spans


def split_passages(
    doc: Document,
    max_len: int = 180,
    stride: int = 90,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> list[Passage]:
    """Split a document into overlapping passages of at most ``max_len`` tokens."""
    tokens = document_tokens(doc, tokenizer)
    return [
        Passage(doc_id=doc.doc_id, index=i, start=start, end=end)
        for i, (start, end) in enumerate(split_spans(len(tokens), max_len, stride))
    ]


def form_query(topic: Topic, variant: str) -> str:
    """Build a query string from topic fields: title (T), description (D), or both (TD)."""
    if variant not in QUERY_VARIANTS:
        raise ValidationError(f"unknown query variant {variant!r}; expected one of {QUERY_VARIANTS}")
    if "T" in variant and not topic.title.strip():
        raise ValidationError(f"topic {topic.topic_id}: empty title for variant {variant}")
    if "D" in variant and not topic.description.strip():
        raise ValidationError(f"topic {topic.topic_id}: empty description for variant {variant}")
    if variant == "T":
        return topic.title
    if variant == "D":
        return topic.description
    return topic.title + " " + topic.description
