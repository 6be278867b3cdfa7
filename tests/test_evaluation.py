import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.errors import FormatError, ValidationError
from xlir.evaluation import (
    evaluate,
    ndcg_at_k,
    read_qrels,
    read_run,
    recall_at_k,
    write_qrels,
    write_run,
)


def brute_force_ndcg(ranking, qrels, k):
    """Independent oracle: explicit loops, exponential gain, log2 discount."""
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k]):
        gain = 2 ** qrels.get(doc_id, 0) - 1
        dcg += gain / math.log2(i + 2)
    ideal = sorted(qrels.values(), reverse=True)
    idcg = 0.0
    for i, grade in enumerate(ideal[:k]):
        idcg += (2**grade - 1) / math.log2(i + 2)
    return dcg / idcg


def brute_force_recall(ranking, qrels, k):
    relevant = [doc_id for doc_id, grade in qrels.items() if grade > 0]
    hits = sum(1 for doc_id in relevant if doc_id in ranking[:k])
    return hits / len(relevant)


class TestNDCG:
    def test_ideal_ordering(self):
        assert ndcg_at_k(["d1", "d2"], {"d1": 3, "d2": 1}) == pytest.approx(1.0)

    def test_worked_example(self):
        # Swapped ranking: (1 + 7/log2 3) / (7 + 1/log2 3).
        expected = (1 + 7 / math.log2(3)) / (7 + 1 / math.log2(3))
        score = ndcg_at_k(["d2", "d1"], {"d1": 3, "d2": 1})
        assert score == pytest.approx(expected, abs=1e-9)
        assert score == pytest.approx(0.7098, abs=1e-4)

    def test_no_relevant_in_top_k(self):
        qrels = {"d1": 2}
        assert ndcg_at_k(["x1", "x2"], qrels, k=2) == 0.0

    def test_undefined_without_relevant(self):
        with pytest.raises(ValidationError):
            ndcg_at_k(["d1"], {"d1": 0})

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            ndcg_at_k(["d1"], {"d1": 1}, k=0)

    def test_bounded(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            docs = [f"d{i}" for i in range(20)]
            qrels = {d: int(rng.integers(0, 4)) for d in docs[:10]}
            if not any(g > 0 for g in qrels.values()):
                qrels["d0"] = 1
            ranking = list(rng.permutation(docs))
            score = ndcg_at_k(ranking, qrels, k=10)
            assert 0.0 <= score <= 1.0


class TestRecall:
    def test_all_found(self):
        qrels = {"a": 1, "b": 2, "c": 1}
        assert recall_at_k(["a", "b", "c", "x"], qrels) == 1.0

    def test_half_found(self):
        assert recall_at_k(["a", "x"], {"a": 1, "b": 1}, k=2) == 0.5

    def test_monotone_in_k(self):
        rng = np.random.default_rng(63)
        docs = [f"d{i}" for i in range(50)]
        qrels = {d: 1 for d in docs[:7]}
        ranking = list(rng.permutation(docs))
        values = [recall_at_k(ranking, qrels, k=k) for k in range(1, 51)]
        assert values == sorted(values)
        assert values[-1] == 1.0


class TestRunIO:
    def run(self, n=100, topics=("t1", "t2")):
        return {
            topic: [(f"doc{rank:03d}", 100.0 - rank + 0.125) for rank in range(1, n // len(topics) + 1)]
            for topic in topics
        }

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "a.run"
        run = self.run()
        write_run(path, run, "tagx")
        assert read_run(path) == run
        lines = path.read_text().splitlines()
        assert lines[0] == "t1 Q0 doc001 1 99.125 tagx"
        assert lines[-1] == "t2 Q0 doc050 50 50.125 tagx"

    def test_shuffled_lines_read_as_sorted(self, tmp_path):
        # A topic's lines may come in any order and between other topics' lines.
        path = tmp_path / "a.run"
        write_run(path, self.run(n=40, topics=("t2", "t1")), "tagx")
        lines = path.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.run"
        shuffled.write_text("".join(np.random.default_rng(71).permutation(lines)))
        assert shuffled.read_text() != path.read_text()
        assert read_run(shuffled) == read_run(path)

    def test_five_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 1 0.5\n")
        with pytest.raises(FormatError, match="6 fields"):
            read_run(path)

    def test_non_numeric_rank_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 one 0.5 tag\n")
        with pytest.raises(FormatError, match="non-numeric rank or score"):
            read_run(path)

    def test_increasing_scores_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 1 0.5 tag\nt1 Q0 d2 2 0.9 tag\n")
        with pytest.raises(ValidationError, match="score increases from rank 1 to 2"):
            read_run(path)

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 1 0.9 tag\nt1 Q0 d2 3 0.5 tag\n")
        with pytest.raises(ValidationError, match="gaps"):
            read_run(path)

    def test_document_listed_twice_rejected(self, tmp_path):
        # Counted twice, d1's gain gave this run an nDCG@20 of 1.6309 against a grade-1 d1.
        path = tmp_path / "bad.run"
        path.write_text("1 Q0 d1 1 2.0 t\n1 Q0 d1 2 1.0 t\n")
        with pytest.raises(ValidationError, match="topic 1: document d1 is listed twice"):
            read_run(path)
        never = tmp_path / "never.run"
        with pytest.raises(ValidationError, match="topic 1: document d1 is listed twice"):
            write_run(never, {"1": [("d1", 2.0), ("d1", 1.0)]}, "t")
        assert not never.exists()

    def test_write_validates_before_writing(self, tmp_path):
        path = tmp_path / "never.run"
        with pytest.raises(ValidationError, match="topic t1: score increases from rank 1 to 2"):
            write_run(path, {"t1": [("d1", 0.5), ("d2", 0.9)]}, "tag")
        assert not path.exists()

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf], ids=["nan", "infinity", "minus-infinity"])
    def test_non_finite_score_rejected_before_writing(self, tmp_path, score):
        # A NaN compares False with every score, so the rank order check alone let it through.
        path = tmp_path / "never.run"
        with pytest.raises(ValidationError, match=f"topic t1: document d2 has non-finite score {score!r}"):
            write_run(path, {"t1": [("d1", 0.5), ("d2", score), ("d3", 0.25)]}, "tag")
        assert not path.exists()

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_score_rejected_on_read(self, tmp_path, text):
        path = tmp_path / "bad.run"
        path.write_text(f"t1 Q0 d1 1 0.5 tag\nt1 Q0 d2 2 {text} tag\n")
        with pytest.raises(FormatError, match=f"{path}:2: score '{text}' is not a finite number"):
            read_run(path)

    @pytest.mark.parametrize(
        ("run", "run_tag", "message"),
        [({"t1": [("d1", 0.5)]}, "", "whitespace"), ({"t1": [("d1", 0.5)]}, "a tag", "whitespace"),
         ({"t 1": [("d1", 0.5)]}, "x", "whitespace"), ({"t1": [("d\t1", 0.5)]}, "x", "whitespace"),
         ({}, "a b", "whitespace"),
         # Each once ended in a raw AttributeError from str.split.
         ({1: [("d1", 0.5)]}, "x", "run field 1 is not a string"),
         ({"t1": [(2, 0.5)]}, "x", "run field 2 is not a string"),
         ({"t1": [("d1", 0.5)]}, 3, "run field 3 is not a string")],
        ids=["empty-tag", "spaced-tag", "spaced-topic", "tabbed-doc", "spaced-tag-empty-run", "int-topic", "int-doc",
             "int-tag"],
    )
    def test_unreadable_field_rejected_before_writing(self, tmp_path, run, run_tag, message):
        path = tmp_path / "never.run"
        with pytest.raises(ValidationError, match=re.escape(message)):
            write_run(path, run, run_tag)
        assert not path.exists()

    @pytest.mark.parametrize(
        ("run", "run_tag", "field"),
        [({"t1": [("d\ud800", 0.5)]}, "x", "d\\ud800"), ({"t\udc00": [("d1", 0.5)]}, "x", "t\\udc00"),
         ({"t1": [("d1", 0.5)]}, "\ud800x", "\\ud800x")],
        ids=["doc-id", "topic-id", "run-tag"],
    )
    def test_lone_surrogate_field_rejected_before_writing(self, tmp_path, run, run_tag, field):
        # A run file is UTF-8, which cannot hold one; it is refused before the file is opened.
        path = tmp_path / "never.run"
        with pytest.raises(ValidationError, match=re.escape(f"run field '{field}' holds a lone surrogate")):
            write_run(path, run, run_tag)
        assert not path.exists()

    def test_score_formatting_round_trips(self, tmp_path):
        path = tmp_path / "fmt.run"
        scores = [1 / 3, 0.1, -2.5e-7, 123456.789]
        run = {"t": [(f"d{i}", score) for i, score in enumerate(sorted(scores, reverse=True))]}
        write_run(path, run, "tag")
        assert read_run(path) == run
        assert [score for _, score in read_run(path)["t"]] == sorted(scores, reverse=True)


class TestQrelsIO:
    def test_round_trip(self, tmp_path):
        qrels = {"t1": {"d1": 2, "d2": 0}, "t2": {"d3": 1}}
        path = tmp_path / "qrels.txt"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels

    @pytest.mark.parametrize(
        "qrels,message",
        [
            ({1: {"d1": 1}}, "qrels field 1 is not a string"),
            ({"t1": {None: 1}}, "qrels field None is not a string"),
            ({"t1": {"": 1}}, "qrels field '' is empty or contains whitespace"),
            # Written, this line has 5 fields, which read_qrels refuses.
            ({"t1": {"a b": 1}}, "qrels field 'a b' is empty or contains whitespace"),
            ({"t\n1": {"d1": 1}}, "qrels field 't\\n1' is empty or contains whitespace"),
            # Once a raw UnicodeEncodeError, after "t1 0 a 1" was written.
            ({"t1": {"a": 1, "b\ud800": 0}}, "qrels field 'b\\ud800' holds a lone surrogate"),
            ({"t1": {"d1": -1}}, "topic t1: document d1: grade -1 is not an int >= 0"),
            ({"t1": {"d1": True}}, "topic t1: document d1: grade True is not an int >= 0"),
            ({"t1": {"d1": 1.0}}, "topic t1: document d1: grade 1.0 is not an int >= 0"),
            ({"t1": {"d1": "1"}}, "topic t1: document d1: grade '1' is not an int >= 0"),
        ],
        ids=["int-topic", "none-doc", "empty-doc", "spaced-doc", "line-feed-topic", "lone-surrogate", "negative-grade",
             "bool-grade", "float-grade", "text-grade"],
    )
    def test_write_refuses_what_read_refuses_before_opening(self, tmp_path, qrels, message):
        path = tmp_path / "never.txt"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            write_qrels(path, qrels)
        assert not path.exists()

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 -1\n")
        with pytest.raises(ValidationError):
            read_qrels(path)

    @pytest.mark.parametrize("grades", [(1, 0), (0, 1)], ids=["relevant-first", "relevant-last"])
    def test_document_judged_twice_rejected(self, tmp_path, grades):
        # Keeping the last grade made d1 relevant or not by the order of the lines.
        path = tmp_path / "qrels.txt"
        path.write_text(f"1 0 d1 {grades[0]}\n1 0 d1 {grades[1]}\n")
        with pytest.raises(ValidationError, match=r"qrels.txt:2: topic 1: document d1 is judged twice"):
            read_qrels(path)


class TestEvaluate:
    def test_perfect_single_topic(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, {"t1": [("d1", 2.0), ("d2", 1.0)]}, "x")
        write_qrels(qrels, {"t1": {"d1": 2, "d2": 1}})
        report = evaluate(run, qrels)
        assert report.mean_ndcg == pytest.approx(1.0)
        assert report.mean_recall == pytest.approx(1.0)

    def test_unjudged_topic_reported(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, {"t1": [("d1", 1.0)], "t9": [("d1", 1.0)]}, "x")
        write_qrels(qrels, {"t1": {"d1": 1}})
        report = evaluate(run, qrels)
        assert report.unjudged_topics == ["t9"]
        assert list(report.per_topic) == ["t1"]

    def test_topic_without_relevant_excluded(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, {"t1": [("d1", 1.0)], "t2": [("d1", 1.0)]}, "x")
        write_qrels(qrels, {"t1": {"d1": 1}, "t2": {"d1": 0}})
        report = evaluate(run, qrels)
        assert report.no_relevant_topics == ["t2"]
        assert list(report.per_topic) == ["t1"]

    @pytest.mark.parametrize(
        "depths,message",
        [
            ({"ndcg_k": 0, "recall_k": -5}, "ndcg_k must be >= 1, got 0"),
            ({"recall_k": 0}, "recall_k must be >= 1, got 0"),
        ],
    )
    def test_depth_below_one_refused_with_no_judged_topic(self, tmp_path, depths, message):
        # With no judged topic no metric is computed, so only the check at the top can refuse.
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, {"t9": [("d1", 1.0)]}, "x")
        write_qrels(qrels, {"t1": {"d1": 1}})
        with pytest.raises(ValidationError, match=message):
            evaluate(run, qrels, **depths)

    def test_matches_brute_force_on_random_runs(self, tmp_path):
        rng = np.random.default_rng(67)
        for trial in range(25):
            docs = [f"d{i}" for i in range(30)]
            qrels_topic = {d: int(rng.integers(0, 3)) for d in rng.choice(docs, 12, replace=False)}
            if not any(g > 0 for g in qrels_topic.values()):
                qrels_topic[docs[0]] = 1
            ranking = [str(d) for d in rng.permutation(docs)]
            k_ndcg, k_recall = int(rng.integers(1, 25)), int(rng.integers(1, 35))
            assert ndcg_at_k(ranking, qrels_topic, k_ndcg) == pytest.approx(
                brute_force_ndcg(ranking, qrels_topic, k_ndcg), abs=1e-12
            )
            assert recall_at_k(ranking, qrels_topic, k_recall) == pytest.approx(
                brute_force_recall(ranking, qrels_topic, k_recall), abs=1e-12
            )


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-5, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
def test_ndcg_invariant_under_score_rescaling(scale, offset, seed):
    # nDCG depends only on ranking order; positive affine rescaling of the
    # scores yields the same ranking, hence the same metric.
    rng = np.random.default_rng(seed)
    docs = [f"d{i}" for i in range(12)]
    scores = {d: float(s) for d, s in zip(docs, rng.standard_normal(12))}
    qrels = {d: int(g) for d, g in zip(docs, rng.integers(0, 3, size=12))}
    if not any(g > 0 for g in qrels.values()):
        qrels[docs[0]] = 1
    by_score = sorted(docs, key=lambda d: (-scores[d], d))
    by_rescaled = sorted(docs, key=lambda d: (-(scale * scores[d] + offset), d))
    assert ndcg_at_k(by_score, qrels, k=10) == ndcg_at_k(by_rescaled, qrels, k=10)
