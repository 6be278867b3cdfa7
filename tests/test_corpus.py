import datetime as dt
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.corpus import (
    DEFAULT_TOKENIZER,
    DateFilter,
    Document,
    Topic,
    form_query,
    ingest_collection,
    ingest_topics,
    parse_date,
    document_tokens,
    parse_passage_key,
    passage_key,
    split_spans,
    write_collection,
    write_topics,
)
from xlir.errors import FormatError, ValidationError


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestIngestion:
    def test_three_documents(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(
            path,
            [
                {"id": f"d{i}", "title": f"t{i}", "text": "body", "lang": "eng"}
                for i in range(1, 4)
            ],
        )
        docs = ingest_collection(path)
        assert [d.doc_id for d in docs] == ["d1", "d2", "d3"]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(
            path,
            [
                {"id": "d1", "title": "a", "text": "x", "lang": "eng"},
                {"id": "d1", "title": "b", "text": "y", "lang": "eng"},
            ],
        )
        with pytest.raises(ValidationError, match="d1"):
            ingest_collection(path)

    def test_date_passthrough(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"id": "d1", "title": "a", "text": "x", "lang": "eng", "date": "2021-03-25"}])
        (doc,) = ingest_collection(path)
        assert doc.date == dt.date(2021, 3, 25)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "title": "a", "text": "x", "lang": "eng"}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            ingest_collection(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"id": "d1", "title": "a", "lang": "eng"}])
        with pytest.raises(FormatError, match="text"):
            ingest_collection(path)

    def test_collection_round_trip(self, tmp_path):
        docs = [
            Document("d1", "Title", "Body text", "fas", dt.date(2020, 5, 1)),
            Document("d2", "Other", "More", "rus", None),
        ]
        path = tmp_path / "docs.jsonl"
        write_collection(path, docs)
        assert ingest_collection(path) == docs

    def test_topic_ingestion_and_date_order(self, tmp_path):
        path = tmp_path / "topics.jsonl"
        write_jsonl(
            path,
            [
                {
                    "topic_id": "203",
                    "title": "a",
                    "description": "b",
                    "start_date": "2021-03-23",
                    "end_date": "2021-03-29",
                }
            ],
        )
        (topic,) = ingest_topics(path)
        assert topic.dates == DateFilter(dt.date(2021, 3, 23), dt.date(2021, 3, 29))
        with pytest.raises(ValidationError):
            DateFilter(dt.date(2021, 1, 2), dt.date(2021, 1, 1))

    def test_reversed_topic_dates_name_file_line_and_topic(self, tmp_path):
        path = tmp_path / "topics.jsonl"
        records = [
            {"topic_id": "201", "title": "a", "description": "b", "start_date": "2021-01-01"},
            {"topic_id": "202", "title": "a", "description": "b", "start_date": "2021-01-02", "end_date": "2021-01-01"},
        ]
        write_jsonl(path, records)
        with pytest.raises(ValidationError, match=r"topics\.jsonl:2: topic '202': .*2021-01-02 after end 2021-01-01"):
            ingest_topics(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("start_date", "2021-13-01", "invalid calendar date '2021-13-01'"),
            ("end_date", "next spring", "unrecognized date 'next spring'"),
        ],
    )
    def test_bad_topic_date_names_file_line_and_topic(self, tmp_path, field, value, match):
        path = tmp_path / "topics.jsonl"
        records = [
            {"topic_id": "201", "title": "a", "description": "b", "start_date": "2021-01-01"},
            {"topic_id": "202", "title": "a", "description": "b", field: value},
        ]
        write_jsonl(path, records)
        with pytest.raises(FormatError, match=rf"topics\.jsonl:2: topic '202': {match}"):
            ingest_topics(path)

    def test_bad_document_date_names_file_and_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        records = [
            {"id": "d1", "title": "a", "text": "x", "lang": "eng", "date": "2021-03-25"},
            {"id": "d2", "title": "a", "text": "x", "lang": "eng", "date": "2021-02-30"},
        ]
        write_jsonl(path, records)
        with pytest.raises(FormatError, match=r"docs\.jsonl:2: invalid calendar date '2021-02-30'"):
            ingest_collection(path)

    @pytest.mark.parametrize(
        "ingest,field,record",
        [
            (ingest_collection, "id", {"id": "d2", "title": "a", "text": "x", "lang": "eng", "date": "2021-03-25"}),
            (ingest_collection, "text", {"id": "d2", "title": "a", "text": "x", "lang": "eng", "date": "2021-03-25"}),
            (ingest_topics, "topic_id", {"topic_id": "202", "title": "t", "description": "d"}),
            (ingest_topics, "title", {"topic_id": "202", "title": "t", "description": "d"}),
        ],
        ids=["document-id", "document-text", "topic-id", "topic-title"],
    )
    def test_lone_surrogate_names_file_and_line(self, tmp_path, ingest, field, record):
        # json.dumps escapes the surrogate as "\ud800", which json.loads reads back as a lone surrogate.
        path = tmp_path / "input.jsonl"
        write_jsonl(path, [{**record, field: record[field] + "1"}, {**record, field: record[field] + "\ud800"}])
        with pytest.raises(FormatError, match=r"input\.jsonl:2: holds a lone surrogate"):
            ingest(path)

    def test_surrogate_pair_escape_is_read(self, tmp_path):
        path = tmp_path / "topics.jsonl"
        write_jsonl(path, [{"topic_id": "201", "title": "\U0001f600", "description": "d"}])
        assert ingest_topics(path)[0].title == "\U0001f600"

    def test_topic_round_trip(self, tmp_path):
        topics = [
            Topic("201", "t", "d", DateFilter(dt.date(2021, 1, 1), dt.date(2021, 2, 1))),
            Topic("202", "t", "d", DateFilter(end=dt.date(2021, 2, 1))),
            Topic("203", "t", "d"),
        ]
        path = tmp_path / "topics.jsonl"
        write_topics(path, topics)
        assert ingest_topics(path) == topics

    @pytest.mark.parametrize(
        "write,records,message",
        [
            # Each lone surrogate once ended in a raw UnicodeEncodeError after the first record was written.
            (write_collection, [Document("d1", "t", "x", "eng"), Document("d2", "t", "x\ud800", "eng")],
             "document 'd2': field 'text' holds a lone surrogate, which UTF-8 cannot encode"),
            (write_collection, [Document("d1", "t", "x", "eng"), Document("d\udfff", "t", "x", "eng")],
             "document 'd\\udfff': field 'doc_id' holds a lone surrogate"),
            (write_collection, [Document("d1", "t", "x", "eng"), Document("d2", "t", "x", 7)],
             "document 'd2': field 'lang' is not a string"),
            (write_collection, [Document(5, "t", "x", "eng")], "document 5: field 'doc_id' is not a string"),
            (write_collection, [Document("d1", "t", "x", "eng"), Document("d1", "u", "y", "rus")],
             "duplicate document id 'd1'"),
            (write_topics, [Topic("201", "t", "d"), Topic("202", "t\ud800", "d")],
             "topic '202': field 'title' holds a lone surrogate"),
            (write_topics, [Topic("201", "t", None)], "topic '201': field 'description' is not a string"),
            (write_topics, [Topic("201", "t", "d"), Topic("201", "u", "e")], "duplicate topic id '201'"),
        ],
        ids=["document-text-surrogate", "document-id-surrogate", "document-lang-int", "document-id-int",
             "document-id-twice", "topic-title-surrogate", "topic-description-none", "topic-id-twice"],
    )
    def test_write_refuses_what_ingest_refuses_before_opening(self, tmp_path, write, records, message):
        path = tmp_path / "never.jsonl"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            write(path, iter(records))
        assert not path.exists()


class TestParseDate:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2021-03-25", dt.date(2021, 3, 25)),
            ("2018-12", dt.date(2018, 12, 1)),
            ("3/23/2021", dt.date(2021, 3, 23)),
            ("12/2018", dt.date(2018, 12, 1)),
        ],
    )
    def test_formats(self, text, expected):
        assert parse_date(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_date("yesterday")
        with pytest.raises(FormatError):
            parse_date("2021-13-01")


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert DEFAULT_TOKENIZER("Hello, World! 42") == ["hello", "world", "42"]

    def test_nfkc_normalization(self):
        # Fullwidth letters normalize to ASCII.
        assert DEFAULT_TOKENIZER("Ｈｅllo") == ["hello"]

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert DEFAULT_TOKENIZER(text) == DEFAULT_TOKENIZER(text)


class TestDocumentTokens:
    def test_title_tokens_then_body_tokens(self):
        assert document_tokens(Document("d", "Alpha, beta", "gamma  delta", "eng")) == ["alpha", "beta", "gamma", "delta"]

    def test_empty_document_has_no_tokens(self):
        assert document_tokens(Document("d", "", " ", "eng")) == []


class TestSplitSpans:
    def test_short_doc_single_passage(self):
        assert split_spans(100) == [(0, 100)]

    def test_270_tokens(self):
        # Window starts enumerate 0, 90; the window at 90 ends at 270 = doc
        # length, so emission stops there.
        assert split_spans(270) == [(0, 180), (90, 270)]

    def test_450_tokens(self):
        assert split_spans(450) == [(0, 180), (90, 270), (180, 360), (270, 450)]

    def test_empty_doc_yields_nothing(self):
        assert split_spans(0) == []

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            split_spans(10, max_len=0)
        with pytest.raises(ValidationError):
            split_spans(10, max_len=5, stride=6)

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_count_formula_and_coverage(self, length, max_len, stride):
        if stride > max_len:
            stride = max_len
        spans = split_spans(length, max_len, stride)
        if length > max_len:
            assert len(spans) == 1 + math.ceil((length - max_len) / stride)
        else:
            assert len(spans) == 1
        covered = set()
        for start, end in spans:
            assert 0 <= start < end <= length
            assert end - start <= max_len
            covered.update(range(start, end))
        assert covered == set(range(length))
        for (a_start, _), (b_start, _) in zip(spans, spans[1:]):
            assert b_start - a_start == stride


class TestFormQuery:
    topic = Topic("1", "a b", "c")

    def test_td_concatenation(self):
        assert form_query(self.topic, "TD") == "a b c"

    def test_title_only(self):
        assert form_query(self.topic, "T") == "a b"

    def test_empty_field_rejected(self):
        with pytest.raises(ValidationError):
            form_query(Topic("1", "", "c"), "T")

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            form_query(self.topic, "X")


def test_passage_key_round_trip():
    assert parse_passage_key(passage_key("doc#1", 3)) == ("doc#1", 3)
    with pytest.raises(FormatError):
        parse_passage_key("nokey")
    with pytest.raises(FormatError):
        parse_passage_key("doc#notanumber")


@pytest.mark.parametrize("key", ["doc#\u00b2", "doc#\u0663", "doc#\uff11"])
def test_passage_key_number_must_be_ascii_digits(key):
    # "²" and "٣" are str.isdigit(); the first is no int() at all, the second would parse
    # as 3, a key that passage_key never writes.
    with pytest.raises(FormatError, match="malformed passage key"):
        parse_passage_key(key)
