"""Distillation support: hard-passage mining and the teacher-student loss.

Mining retrieves the top passages per training query from a dense index;
the loss compares teacher and student score lists for one query as softmax
distributions under KL divergence. Gradient training itself happens in an
external trainer fed by the JSON-lines file written here.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dense
from .errors import RECORD_ERRORS, FormatError, ValidationError, read_jsonl


@dataclass
class DistillPair:
    """Mined passages and scores for one training query."""

    query_id: str
    passage_ids: list[str]
    teacher_scores: list[float]
    student_scores: list[float] | None = None

    def __post_init__(self) -> None:
        if len(self.passage_ids) < 2:
            raise ValidationError(f"query {self.query_id!r}: need at least 2 passages")
        if len(self.teacher_scores) != len(self.passage_ids):
            raise ValidationError(f"query {self.query_id!r}: teacher scores misaligned")
        if self.student_scores is not None and len(self.student_scores) != len(self.passage_ids):
            raise ValidationError(f"query {self.query_id!r}: student scores misaligned")


def mine_hard_passages(
    index: dense.DenseIndex,
    query_vectors: np.ndarray,
    k: int = 50,
    params: dense.DenseIndexParams | None = None,
) -> list[tuple[str, float]]:
    """``(passage key, score)`` of the top-k passages for one query; fewer if the index is smaller."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return []
    return dense.search_dense(index, query_vectors, params)[:k]


def _log_softmax(scores: Sequence[float], temperature: float) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64) / temperature
    arr = arr - arr.max()
    return arr - math.log(np.exp(arr).sum())


def distill_loss(
    teacher_scores: Sequence[float],
    student_scores: Sequence[float],
    temperature: float = 1.0,
) -> float:
    """KL(softmax(teacher) || softmax(student)) over one query's score list."""
    if len(teacher_scores) != len(student_scores):
        raise ValidationError(
            f"score lists differ in length: {len(teacher_scores)} vs {len(student_scores)}"
        )
    if len(teacher_scores) < 2:
        raise ValidationError("need at least 2 scores per query")
    if temperature <= 0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    teacher = np.asarray(teacher_scores, dtype=np.float64)
    student = np.asarray(student_scores, dtype=np.float64)
    if not (np.isfinite(teacher).all() and np.isfinite(student).all()):
        raise ValidationError("scores must be finite")
    log_p = _log_softmax(teacher, temperature)
    log_q = _log_softmax(student, temperature)
    return float(np.sum(np.exp(log_p) * (log_p - log_q)))


def write_distill_file(path: str | Path, pairs: Sequence[DistillPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            record = {
                "query_id": pair.query_id,
                "passages": [
                    {"pid": pid, "teacher": score}
                    for pid, score in zip(pair.passage_ids, pair.teacher_scores)
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_distill_file(path: str | Path) -> list[DistillPair]:
    pairs: list[DistillPair] = []
    for lineno, record in read_jsonl(path):
        try:
            passages = record["passages"]
            pairs.append(
                DistillPair(
                    query_id=record["query_id"],
                    passage_ids=[p["pid"] for p in passages],
                    teacher_scores=[float(p["teacher"]) for p in passages],
                )
            )
        except RECORD_ERRORS:
            raise FormatError(f"{path}:{lineno}: malformed query_id/passages fields") from None
    return pairs
