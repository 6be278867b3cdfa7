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
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import LONE_SURROGATE, FormatError, ValidationError, read_jsonl, unwritable

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


class Tokenizer:
    """Deterministic text-to-token function.

    NFKC-normalizes, lowercases, and splits on runs of non-letter/digit
    characters.
    """

    def __call__(self, text: str) -> list[str]:
        return _TOKEN_RE.findall(unicodedata.normalize("NFKC", text).lower())


DEFAULT_TOKENIZER = Tokenizer()


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str
    lang: str
    date: dt.date | None = None


@dataclass(frozen=True)
class DateFilter:
    """Optional inclusive date range attached to a topic."""

    start: dt.date | None = None
    end: dt.date | None = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValidationError(f"date filter start {self.start} after end {self.end}")

    @property
    def empty(self) -> bool:
        return self.start is None and self.end is None


@dataclass(frozen=True)
class Topic:
    topic_id: str
    title: str
    description: str
    dates: DateFilter = DateFilter()


def passage_key(doc_id: str, index: int) -> str:
    return f"{doc_id}#{index}"


def parse_passage_key(key: str) -> tuple[str, int]:
    doc_id, _, index = key.rpartition("#")
    # ASCII digits only: str.isdigit() admits "²", which int() refuses, and "٣", which
    # int() reads as 3 although passage_key never writes it.
    if not doc_id or not (index.isascii() and index.isdigit()):
        raise FormatError(f"malformed passage key {key!r}")
    return doc_id, int(index)


def _require(record: dict, key: str, path: str | Path, lineno: int) -> str:
    if key not in record:
        raise FormatError(f"{path}:{lineno}: missing field {key!r}")
    value = record[key]
    if not isinstance(value, str):
        raise FormatError(f"{path}:{lineno}: field {key!r} must be a string")
    return value


def _date(record: dict, key: str, path: str | Path, lineno: int, where: str) -> dt.date | None:
    """``record[key]`` read by ``parse_date``, ``None`` when absent or null; a date it
    refuses raises a ``FormatError`` that starts with ``where``."""
    if record.get(key) is None:
        return None
    value = _require(record, key, path, lineno)
    try:
        return parse_date(value)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None


def ingest_collection(path: str | Path) -> list[Document]:
    """Read a JSON-lines document file, rejecting duplicate ids."""
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path):
        doc_id = _require(record, "id", path, lineno)
        if doc_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        lang = _require(record, "lang", path, lineno)
        date = _date(record, "date", path, lineno, f"{path}:{lineno}")
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
        where = f"{path}:{lineno}: topic {topic_id!r}"
        start, end = (_date(record, key, path, lineno, where) for key in ("start_date", "end_date"))
        try:
            dates = DateFilter(start, end)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        topics.append(
            Topic(
                topic_id=topic_id,
                title=_require(record, "title", path, lineno),
                description=_require(record, "description", path, lineno),
                dates=dates,
            )
        )
    return topics


def _check_records(path: str | Path, what: str, records: list, fields: tuple[str, ...]) -> None:
    """Refuse, before ``path`` is opened, a record the ingest function could not read back: one whose
    text ``fields`` (the id first) are not strings or hold a lone surrogate, or an id given twice."""
    texts = [getattr(record, name) for record in records for name in fields]
    bad = unwritable(texts)
    if bad is not None:
        reason = LONE_SURROGATE if isinstance(texts[bad], str) else "is not a string"
        record_id, name = texts[bad - bad % len(fields)], fields[bad % len(fields)]
        raise ValidationError(f"{path}: {what} {record_id!r}: field {name!r} {reason}")
    seen: set[str] = set()
    for record_id in texts[:: len(fields)]:
        if record_id in seen:
            raise ValidationError(f"{path}: duplicate {what} id {record_id!r}")
        seen.add(record_id)


def write_collection(path: str | Path, docs: Iterable[Document]) -> None:
    """Write ``docs`` as JSON lines; refuse, before opening ``path``, a document ``ingest_collection`` refuses."""
    docs = list(docs)
    _check_records(path, "document", docs, ("doc_id", "title", "text", "lang"))
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id, "title": doc.title, "text": doc.text, "lang": doc.lang}
            if doc.date is not None:
                record["date"] = doc.date.isoformat()
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_topics(path: str | Path, topics: Iterable[Topic]) -> None:
    """Write ``topics`` as JSON lines; refuse, before opening ``path``, a topic ``ingest_topics`` refuses."""
    topics = list(topics)
    _check_records(path, "topic", topics, ("topic_id", "title", "description"))
    with open(path, "w", encoding="utf-8") as fh:
        for topic in topics:
            record: dict = {
                "topic_id": topic.topic_id,
                "title": topic.title,
                "description": topic.description,
            }
            if topic.dates.start is not None:
                record["start_date"] = topic.dates.start.isoformat()
            if topic.dates.end is not None:
                record["end_date"] = topic.dates.end.isoformat()
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def document_tokens(doc: Document) -> list[str]:
    """Token sequence of a document: title tokens followed by body tokens."""
    return DEFAULT_TOKENIZER(doc.title) + DEFAULT_TOKENIZER(doc.text)


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
