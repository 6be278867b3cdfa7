"""Date-window planning, topic date filtering, and result merging.

A shard plan partitions a dated collection into contiguous calendar windows
(three months by default) aligned to the month of the earliest document.
Topic date filters select the windows they intersect; ``xlir.search`` turns
that selection into a mask over one index's documents, so a plan is a search
input and never splits an index. Ranked lists over disjoint document sets
merge by raw score, and multilingual fusion merges per-language runs over
disjoint subcollections the same way.
"""

from __future__ import annotations

import datetime as dt
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .corpus import DateFilter, Document
from .errors import FormatError, ValidationError, json_int, malformed

PLAN_FORMAT = "xlir-shard-plan"
PLAN_VERSION = 1


def _add_months(day: dt.date, months: int) -> dt.date:
    total = day.year * 12 + (day.month - 1) + months
    return dt.date(total // 12, total % 12 + 1, 1)


@dataclass
class ShardPlan:
    """Ordered ``[start, end)`` windows plus a document-to-window assignment.

    ``source`` names the plan in error messages: its file, once loaded.
    """

    windows: list[tuple[dt.date, dt.date]]
    assignment: dict[str, int]
    window_months: int
    source: str = field(default="shard plan", compare=False)

    @property
    def num_shards(self) -> int:
        return len(self.windows)

    def save(self, path: str | Path) -> None:
        record = {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "window_months": self.window_months,
            "windows": [[start.isoformat(), end.isoformat()] for start, end in self.windows],
            "assignment": dict(sorted(self.assignment.items())),
        }
        Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ShardPlan":
        with malformed(path, "shard plan"):
            record = json.loads(Path(path).read_text(encoding="utf-8"))
            if record.get("format") != PLAN_FORMAT or record.get("version") != PLAN_VERSION:
                raise FormatError(f"{path}: not a shard plan file")
            windows = [
                (dt.date.fromisoformat(start), dt.date.fromisoformat(end))
                for start, end in record["windows"]
            ]
            assignment = {d: json_int(w, path, f"window of document {d!r}") for d, w in record["assignment"].items()}
            window_months = json_int(record["window_months"], path, "window_months")
        if window_months < 1:
            raise FormatError(f"{path}: window_months must be >= 1, got {window_months}")
        if any(start >= end for start, end in windows) or any(
            end != following for (_, end), (following, _) in zip(windows, windows[1:])
        ):
            raise FormatError(f"{path}: shard windows are not increasing and contiguous")
        for doc_id, ordinal in assignment.items():
            if not 0 <= ordinal < len(windows):
                raise FormatError(
                    f"{path}: document {doc_id!r} assigned to shard {ordinal}, outside [0, {len(windows)})"
                )
        return cls(windows=windows, assignment=assignment, window_months=window_months, source=str(path))


def plan_shards(docs: Sequence[Document], window_months: int = 3) -> ShardPlan:
    """Partition documents into calendar windows of ``window_months`` months.

    Windows start at the month of the earliest document date and cover the
    full date span. Undated documents are assigned to the final window (a
    download date bounds availability from above, so the last window is the
    least wrong guess).
    """
    if window_months < 1:
        raise ValidationError(f"window_months must be >= 1, got {window_months}")
    dated = [doc for doc in docs if doc.date is not None]
    if not dated:
        raise ValidationError("cannot plan shards: no document carries a date")
    earliest = min(doc.date for doc in dated)
    latest = max(doc.date for doc in dated)

    windows: list[tuple[dt.date, dt.date]] = []
    start = dt.date(earliest.year, earliest.month, 1)
    while start <= latest:
        end = _add_months(start, window_months)
        windows.append((start, end))
        start = end

    assignment: dict[str, int] = {}
    for doc in docs:
        if doc.date is None:
            assignment[doc.doc_id] = len(windows) - 1
            continue
        months_from_start = (doc.date.year - windows[0][0].year) * 12 + (
            doc.date.month - windows[0][0].month
        )
        assignment[doc.doc_id] = months_from_start // window_months
    return ShardPlan(windows=windows, assignment=assignment, window_months=window_months)


def select_shards(plan: ShardPlan, date_filter: DateFilter) -> set[int]:
    """Shard ordinals whose window intersects the filter's inclusive range."""
    if date_filter.empty:
        return set(range(plan.num_shards))
    selected: set[int] = set()
    for ordinal, (window_start, window_end) in enumerate(plan.windows):
        if date_filter.end is not None and window_start > date_filter.end:
            continue
        if date_filter.start is not None and date_filter.start >= window_end:
            continue
        selected.add(ordinal)
    return selected


def merge_shard_results(
    per_shard: Iterable[Sequence[tuple[str, float]]], k: int
) -> list[tuple[str, float]]:
    """Merge ranked lists by raw score, keeping the max for duplicates."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _best_per_id(chain.from_iterable(per_shard))[:k]


def _best_per_id(scored: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Each id once with its highest score; descending score, ties by ascending id."""
    best: dict[str, float] = {}
    for doc_id, score in scored:
        if doc_id not in best or score > best[doc_id]:
            best[doc_id] = score
    return sorted(best.items(), key=lambda entry: (-entry[1], entry[0]))


def _min_max(results: Sequence[tuple[str, float]]) -> list[tuple[str, float]]:
    scores = [score for _, score in results]
    low, high = min(scores), max(scores)
    if high == low:
        return [(doc_id, 0.5) for doc_id, _ in results]
    return [(doc_id, (score - low) / (high - low)) for doc_id, score in results]


def fuse_multilingual(
    per_language_runs: Sequence[Sequence[tuple[str, float]]],
    k: int,
    normalize: bool = False,
) -> list[tuple[str, float]]:
    """Merge per-language ranked lists over disjoint subcollections.

    Raw scores are compared directly (the runs must come from the same query
    and scoring family); ``normalize`` applies per-run min-max rescaling
    first. Overlapping document ids across runs are an error naming the
    first repeat in pool order. Entries sort as ``(-score, doc_id)`` tuples
    and are negated back, which is exact, so ``-0.0`` and ``0.0`` come back
    as they went in.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pooled = [
        (-score, doc_id)
        for run in per_language_runs
        if run
        for doc_id, score in (_min_max(run) if normalize else run)
    ]
    if len({doc_id for _, doc_id in pooled}) != len(pooled):
        seen: set[str] = set()
        for _, doc_id in pooled:
            if doc_id in seen:
                raise ValidationError(f"document {doc_id!r} appears in more than one language run")
            seen.add(doc_id)
    pooled.sort()
    return [(doc_id, -negated) for negated, doc_id in pooled[:k]]
