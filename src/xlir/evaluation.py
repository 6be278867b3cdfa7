"""TREC-style run and qrels files plus nDCG@k and Recall@k.

A run is a ``Run``: topic id -> that topic's ``(doc_id, score)`` pairs, best
first, so the document at position ``r - 1`` has rank ``r``. Only this module
knows the run-file columns, ``topic_id Q0 doc_id rank score run_tag``:
``write_run`` numbers the ranks by position and writes the tag on every line;
``read_run`` checks the ranks and drops them and the tag. Qrels lines are
``topic_id 0 doc_id grade``. nDCG uses exponential gain ``2**grade - 1``
with a ``log2(rank + 1)`` discount; unjudged documents count as grade 0.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from operator import itemgetter
from pathlib import Path

from .errors import LONE_SURROGATE, FormatError, ValidationError, read_lines, unwritable

# topic_id -> (doc_id, score) pairs, best first
Run = dict[str, list[tuple[str, float]]]
# topic_id -> doc_id -> relevance grade
Qrels = dict[str, dict[str, int]]


def _validate_ranking(topic_id: str, ranked: Sequence[tuple[str, float]], where: str) -> None:
    """Refuse a topic that lists a document twice, scores one with a value that is not finite,
    or whose scores increase down the ranking."""
    seen: set[str] = set()
    for doc_id, score in ranked:
        if doc_id in seen:
            raise ValidationError(f"{where}: topic {topic_id}: document {doc_id} is listed twice")
        if not math.isfinite(score):
            raise ValidationError(f"{where}: topic {topic_id}: document {doc_id} has non-finite score {score!r}")
        seen.add(doc_id)
    for rank, ((_, prev), (_, cur)) in enumerate(pairwise(ranked), start=1):
        if cur > prev:
            raise ValidationError(f"{where}: topic {topic_id}: score increases from rank {rank} to {rank + 1}")


def _check_fields(path: str | Path, what: str, names: list[str]) -> None:
    """Refuse a field that splitting a line on whitespace would not read back: one that is not a
    string, holds a lone surrogate, is empty or contains whitespace."""
    bad = unwritable(names)
    if bad is not None:
        reason = LONE_SURROGATE if isinstance(names[bad], str) else "is not a string"
        raise ValidationError(f"{path}: {what} field {names[bad]!r} {reason}")
    for name in names:
        if name.split() != [name]:
            raise ValidationError(f"{path}: {what} field {name!r} is empty or contains whitespace")


def write_run(path: str | Path, run: Run, run_tag: str) -> None:
    """Write ``run`` as a run file tagged ``run_tag``, a topic with no documents as no line;
    refuse, before opening ``path``, a run ``read_run`` could not read back."""
    for topic_id, ranked in run.items():
        _validate_ranking(topic_id, ranked, str(path))
    _check_fields(path, "run", list({run_tag, *run, *(doc_id for ranked in run.values() for doc_id, _ in ranked)}))
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, ranked in run.items():
            fh.writelines(
                f"{topic_id} Q0 {doc_id} {rank} {score!r} {run_tag}\n"
                for rank, (doc_id, score) in enumerate(ranked, start=1)
            )


def read_run(path: str | Path) -> Run:
    """A run file as a ``Run``: topics in the order first seen, each topic's lines, which may
    come in any order and between other topics' lines, ordered by rank."""
    by_topic: dict[str, list[tuple[int, str, float]]] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        topic_id, _, doc_id, rank_text, score_text, _ = fields
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric rank or score") from None
        if not math.isfinite(score):
            raise FormatError(f"{path}:{lineno}: score {score_text!r} is not a finite number")
        by_topic.setdefault(topic_id, []).append((rank, doc_id, score))
    run: Run = {}
    for topic_id, ranked in by_topic.items():
        ranked.sort(key=itemgetter(0))
        if [rank for rank, _, _ in ranked] != list(range(1, len(ranked) + 1)):
            raise ValidationError(f"{path}: topic {topic_id}: ranks are not 1..{len(ranked)} without gaps")
        run[topic_id] = [(doc_id, score) for _, doc_id, score in ranked]
        _validate_ranking(topic_id, run[topic_id], str(path))
    return run


def ranking_from_entries(run: Run) -> dict[str, list[str]]:
    """Each topic's doc ids in rank order."""
    return {topic_id: [doc_id for doc_id, _ in ranked] for topic_id, ranked in run.items()}


def read_qrels(path: str | Path) -> Qrels:
    """A qrels file; a topic that judges one document twice is refused."""
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
        judged = qrels.setdefault(topic_id, {})
        if doc_id in judged:
            raise ValidationError(f"{path}:{lineno}: topic {topic_id}: document {doc_id} is judged twice")
        judged[doc_id] = grade
    return qrels


def write_qrels(path: str | Path, qrels: Qrels) -> None:
    """Write ``qrels`` sorted by topic and document; refuse, before opening ``path``, qrels
    ``read_qrels`` could not read back."""
    _check_fields(path, "qrels", [*qrels, *{doc_id for judged in qrels.values() for doc_id in judged}])
    for topic_id, judged in qrels.items():
        for doc_id, grade in judged.items():
            if type(grade) is not int or grade < 0:  # a bool is an int to Python, but is written as True
                raise ValidationError(
                    f"{path}: topic {topic_id}: document {doc_id}: grade {grade!r} is not an int >= 0"
                )
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
    for name, k in (("ndcg_k", ndcg_k), ("recall_k", recall_k)):
        if k < 1:
            raise ValidationError(f"{name} must be >= 1, got {k}")
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
