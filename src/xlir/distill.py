"""Distillation support: the mined training set and the teacher-student loss.

A mined set is a ``DistillSet``: query id -> ``(passage key, teacher score)``
pairs in mined order. ``xlir mine-distill`` fills it with a dense search cut
at ``k``, the search's own scores standing in for the teacher's until an
external reranker replaces them, so unlike a run's scores they need not
decrease down the list. Each query lists at least two passages and no passage
twice, every teacher score is finite and no query is listed twice. The loss
compares teacher and student score lists for one query as softmax
distributions under KL divergence. Gradient training itself happens in an
external trainer fed by the JSON-lines file written here.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import LONE_SURROGATE, RECORD_ERRORS, FormatError, ValidationError, XlirError, read_jsonl, unwritable

# query id -> (passage key, teacher score) pairs, in mined order
DistillSet = dict[str, list[tuple[str, float]]]


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


def _check_query(where: str, query_id: str, scored: Sequence[tuple[str, float]], error: type[XlirError]) -> None:
    """Refuse a query with fewer than two passages, a passage listed twice, or a non-finite teacher score."""
    if len(scored) < 2:
        raise error(f"{where}: query {query_id!r}: need at least 2 passages, got {len(scored)}")
    seen: set[str] = set()
    for pid, score in scored:
        if pid in seen:
            raise error(f"{where}: query {query_id!r}: passage {pid!r} is listed twice")
        seen.add(pid)
        if not math.isfinite(score):
            raise error(
                f"{where}: query {query_id!r}: passage {pid!r} has teacher score {score!r}, expected a finite number"
            )


def write_distill_file(path: str | Path, pairs: DistillSet) -> None:
    """Write ``pairs`` as JSON lines; refuse, before writing any line, a set ``read_distill_file`` would refuse."""
    for query_id, scored in pairs.items():
        # The types read_distill_file takes; a bool is an int to Python but true to JSON.
        types_ok = all(isinstance(pid, str) and (isinstance(s, float) or type(s) is int) for pid, s in scored)
        if not (isinstance(query_id, str) and types_ok):
            raise ValidationError(f"{path}: query {query_id!r}: expected a string id and (string key, number) pairs")
        ids = [query_id, *(pid for pid, _ in scored)]
        bad = unwritable(ids)
        if bad is not None:
            raise ValidationError(f"{path}: query {query_id!r}: id {ids[bad]!r} {LONE_SURROGATE}")
        _check_query(str(path), query_id, scored, ValidationError)
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, scored in pairs.items():
            record = {"query_id": query_id, "passages": [{"pid": pid, "teacher": score} for pid, score in scored]}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_distill_file(path: str | Path) -> DistillSet:
    """A distillation file as a ``DistillSet``, its queries in file order."""
    pairs: DistillSet = {}
    for lineno, record in read_jsonl(path):
        try:
            query_id, passages = record["query_id"], record["passages"]
            scored = [(p["pid"], p["teacher"]) for p in passages]
            # A score must be a JSON number: float() would also take numeric text, and true is an int.
            valid = isinstance(query_id, str) and all(
                isinstance(pid, str) and type(score) in (int, float) for pid, score in scored
            )
            scored = [(pid, float(score)) for pid, score in scored]
        except (*RECORD_ERRORS, OverflowError):  # OverflowError: an integer too large for a float
            valid = False
        if not valid:
            raise FormatError(
                f"{path}:{lineno}: malformed query_id/passages fields, expected "
                "{'query_id': string, 'passages': [{'pid': string, 'teacher': number}, ...]}"
            )
        if query_id in pairs:
            raise FormatError(f"{path}:{lineno}: query {query_id!r} is listed twice")
        # json.loads reads NaN and Infinity, and a number too large for a float as inf.
        _check_query(f"{path}:{lineno}", query_id, scored, FormatError)
        pairs[query_id] = scored
    return pairs
