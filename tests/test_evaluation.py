import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.errors import FormatError, ValidationError
from xlir.evaluation import (
    RunEntry,
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
    def entries(self, n=100, topics=("t1", "t2")):
        entries = []
        for topic in topics:
            for rank in range(1, n // len(topics) + 1):
                entries.append(
                    RunEntry(topic, f"doc{rank:03d}", rank, 100.0 - rank + 0.125, "tagx")
                )
        return entries

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "a.run"
        entries = self.entries()
        write_run(path, entries)
        assert read_run(path) == entries

    def test_five_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 1 0.5\n")
        with pytest.raises(FormatError, match="6 fields"):
            read_run(path)

    def test_increasing_scores_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("t1 Q0 d1 1 0.5 tag\nt1 Q0 d2 2 0.9 tag\n")
        with pytest.raises(ValidationError, match="score increases"):
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
            write_run(never, [RunEntry("1", "d1", 1, 2.0, "t"), RunEntry("1", "d1", 2, 1.0, "t")])
        assert not never.exists()

    def test_write_validates_before_writing(self, tmp_path):
        path = tmp_path / "never.run"
        bad = [RunEntry("t1", "d1", 2, 0.5, "tag")]
        with pytest.raises(ValidationError):
            write_run(path, bad)
        assert not path.exists()

    @pytest.mark.parametrize(
        "entry",
        [RunEntry("t1", "d1", 1, 0.5, ""), RunEntry("t1", "d1", 1, 0.5, "a tag"), RunEntry("t 1", "d1", 1, 0.5, "x"),
         RunEntry("t1", "d\t1", 1, 0.5, "x")],
        ids=["empty-tag", "spaced-tag", "spaced-topic", "tabbed-doc"],
    )
    def test_unreadable_field_rejected_before_writing(self, tmp_path, entry):
        path = tmp_path / "never.run"
        with pytest.raises(ValidationError, match="whitespace"):
            write_run(path, [entry])
        assert not path.exists()

    def test_score_formatting_round_trips(self, tmp_path):
        path = tmp_path / "fmt.run"
        scores = [1 / 3, 0.1, -2.5e-7, 123456.789]
        entries = [
            RunEntry("t", f"d{i}", i + 1, score, "tag")
            for i, score in enumerate(sorted(scores, reverse=True))
        ]
        write_run(path, entries)
        assert [e.score for e in read_run(path)] == sorted(scores, reverse=True)


class TestQrelsIO:
    def test_round_trip(self, tmp_path):
        qrels = {"t1": {"d1": 2, "d2": 0}, "t2": {"d3": 1}}
        path = tmp_path / "qrels.txt"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 d1 -1\n")
        with pytest.raises(ValidationError):
            read_qrels(path)


class TestEvaluate:
    def test_perfect_single_topic(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, [RunEntry("t1", "d1", 1, 2.0, "x"), RunEntry("t1", "d2", 2, 1.0, "x")])
        write_qrels(qrels, {"t1": {"d1": 2, "d2": 1}})
        report = evaluate(run, qrels)
        assert report.mean_ndcg == pytest.approx(1.0)
        assert report.mean_recall == pytest.approx(1.0)

    def test_unjudged_topic_reported(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, [RunEntry("t1", "d1", 1, 1.0, "x"), RunEntry("t9", "d1", 1, 1.0, "x")])
        write_qrels(qrels, {"t1": {"d1": 1}})
        report = evaluate(run, qrels)
        assert report.unjudged_topics == ["t9"]
        assert list(report.per_topic) == ["t1"]

    def test_topic_without_relevant_excluded(self, tmp_path):
        run = tmp_path / "a.run"
        qrels = tmp_path / "q.txt"
        write_run(run, [RunEntry("t1", "d1", 1, 1.0, "x"), RunEntry("t2", "d1", 1, 1.0, "x")])
        write_qrels(qrels, {"t1": {"d1": 1}, "t2": {"d1": 0}})
        report = evaluate(run, qrels)
        assert report.no_relevant_topics == ["t2"]
        assert list(report.per_topic) == ["t1"]

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
