"""TREC-style run and qrels files plus nDCG@k and Recall@k.

Run lines are ``topic_id Q0 doc_id rank score run_tag``; qrels lines are
``topic_id 0 doc_id grade``. nDCG uses exponential gain ``2**grade - 1``
with a ``log2(rank + 1)`` discount; unjudged documents count as grade 0.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path

from .errors import FormatError, ValidationError, read_lines

# topic_id -> doc_id -> relevance grade
Qrels = dict[str, dict[str, int]]


@dataclass(frozen=True)
class RunEntry:
    topic_id: str
    doc_id: str
    rank: int
    score: float
    run_tag: str


def format_score(score: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(score)


def entries_by_topic(entries: Iterable[RunEntry]) -> dict[str, list[RunEntry]]:
    """Run entries grouped by topic, topics in the order first seen, each topic's entries by rank."""
    by_topic: dict[str, list[RunEntry]] = {}
    for entry in entries:
        by_topic.setdefault(entry.topic_id, []).append(entry)
    for topic_entries in by_topic.values():
        topic_entries.sort(key=lambda entry: entry.rank)
    return by_topic


def _validate_run(entries: Sequence[RunEntry], where: str) -> None:
    for topic_id, ranked in entries_by_topic(entries).items():
        if [entry.rank for entry in ranked] != list(range(1, len(ranked) + 1)):
            raise ValidationError(f"{where}: topic {topic_id}: ranks are not 1..{len(ranked)} without gaps")
        for prev, cur in pairwise(ranked):
            if cur.score > prev.score:
                raise ValidationError(
                    f"{where}: topic {topic_id}: score increases from rank {prev.rank} to {cur.rank}"
                )


def write_run(path: str | Path, entries: Sequence[RunEntry]) -> None:
    """Write a run file; refuse a run ``read_run`` could not read back."""
    _validate_run(entries, str(path))
    names = {name for entry in entries for name in (entry.topic_id, entry.doc_id, entry.run_tag)}
    for name in names:
        if name.split() != [name]:
            raise ValidationError(f"{path}: run field {name!r} is empty or contains whitespace")
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(
                f"{entry.topic_id} Q0 {entry.doc_id} {entry.rank} "
                f"{format_score(entry.score)} {entry.run_tag}\n"
            )


def read_run(path: str | Path) -> list[RunEntry]:
    entries: list[RunEntry] = []
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        topic_id, _, doc_id, rank_text, score_text, run_tag = fields
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric rank or score") from None
        entries.append(RunEntry(topic_id, doc_id, rank, score, run_tag))
    _validate_run(entries, str(path))
    return entries


def ranking_from_entries(entries: Sequence[RunEntry]) -> dict[str, list[str]]:
    """Per-topic doc ids ordered by rank."""
    return {topic_id: [entry.doc_id for entry in ranked] for topic_id, ranked in entries_by_topic(entries).items()}


def ranking_with_scores(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Per-topic ``(doc_id, score)`` pairs from a run file, ordered by rank."""
    return {
        topic_id: [(entry.doc_id, entry.score) for entry in ranked]
        for topic_id, ranked in entries_by_topic(read_run(path)).items()
    }


def read_qrels(path: str | Path) -> Qrels:
    qrels: Qrels = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        topic_id, _, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer grade {grade_text!r}") from None
        if grade < 0:
            raise ValidationError(f"{path}:{lineno}: negative relevance grade {grade}")
        qrels.setdefault(topic_id, {})[doc_id] = grade
    return qrels


def write_qrels(path: str | Path, qrels: Qrels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in sorted(qrels):
            for doc_id in sorted(qrels[topic_id]):
                fh.write(f"{topic_id} 0 {doc_id} {qrels[topic_id][doc_id]}\n")


def _gain(grade: int) -> float:
    return float(2**grade - 1)


def ndcg_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int = 20) -> float:
    """Normalized DCG at depth k for one topic's ranking."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    relevant = [grade for grade in qrels.values() if grade > 0]
    if not relevant:
        raise ValidationError("nDCG undefined: no relevant document for this topic")
    dcg = sum(
        _gain(qrels.get(doc_id, 0)) / math.log2(i + 1)
        for i, doc_id in enumerate(ranking[:k], start=1)
    )
    ideal = sorted(qrels.values(), reverse=True)[:k]
    idcg = sum(_gain(grade) / math.log2(i + 1) for i, grade in enumerate(ideal, start=1))
    return dcg / idcg


def recall_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int = 1000) -> float:
    """Fraction of relevant documents (grade > 0) retrieved in the top k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    relevant = {doc_id for doc_id, grade in qrels.items() if grade > 0}
    if not relevant:
        raise ValidationError("recall undefined: no relevant document for this topic")
    return len(relevant.intersection(ranking[:k])) / len(relevant)


@dataclass
class EvalReport:
    """Per-topic metrics plus unweighted means over evaluated topics."""

    per_topic: dict[str, dict[str, float]]
    mean_ndcg: float
    mean_recall: float
    ndcg_k: int
    recall_k: int
    unjudged_topics: list[str] = field(default_factory=list)
    no_relevant_topics: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ndcg_k": self.ndcg_k,
                "recall_k": self.recall_k,
                "per_topic": {t: dict(sorted(m.items())) for t, m in sorted(self.per_topic.items())},
                "mean": {"ndcg": self.mean_ndcg, "recall": self.mean_recall},
                "unjudged_topics": sorted(self.unjudged_topics),
                "no_relevant_topics": sorted(self.no_relevant_topics),
            },
            sort_keys=True,
            indent=2,
        )


def evaluate(
    run_path: str | Path,
    qrels_path: str | Path,
    ndcg_k: int = 20,
    recall_k: int = 1000,
) -> EvalReport:
    """Score a run file against qrels.

    Topics present in the run but not the qrels are excluded and reported;
    topics whose judgments contain no relevant document are excluded from
    the means. Topics present only in the qrels are not scored.
    """
    rankings = ranking_from_entries(read_run(run_path))
    qrels = read_qrels(qrels_path)
    per_topic: dict[str, dict[str, float]] = {}
    unjudged: list[str] = []
    no_relevant: list[str] = []
    for topic_id in sorted(rankings):
        judgments = qrels.get(topic_id)
        if judgments is None:
            unjudged.append(topic_id)
            continue
        if not any(grade > 0 for grade in judgments.values()):
            no_relevant.append(topic_id)
            continue
        per_topic[topic_id] = {
            "ndcg": ndcg_at_k(rankings[topic_id], judgments, ndcg_k),
            "recall": recall_at_k(rankings[topic_id], judgments, recall_k),
        }
    n = len(per_topic)
    return EvalReport(
        per_topic=per_topic,
        mean_ndcg=sum(m["ndcg"] for m in per_topic.values()) / n if n else 0.0,
        mean_recall=sum(m["recall"] for m in per_topic.values()) / n if n else 0.0,
        ndcg_k=ndcg_k,
        recall_k=recall_k,
        unjudged_topics=unjudged,
        no_relevant_topics=no_relevant,
    )
