#!/usr/bin/env python3
"""Compare two output trees of scripts/run_pipeline.py.

    PYTHONPATH=src python scripts/compare_pipeline.py OLD NEW

Prints the manifest entries added, removed and changed from OLD/manifest.json
to NEW/manifest.json. Then, for each run file under runs/ in both trees, it
prints how many topics changed their ranking (the ordered doc ids differ) and
the largest absolute score difference of a document retrieved for the same
topic in both runs, followed by the run's mean nDCG and recall from
metrics/<run>.json in each tree where that file exists. Last, for the mined
distillation pairs (distill/pairs.jsonl), it prints how many queries changed
their passage list and the largest absolute teacher-score difference of a
passage mined for the same query in both files. A change that moves golden
bytes records this report.
"""

import argparse
import json
import sys
from pathlib import Path

from xlir.distill import read_distill_file
from xlir.evaluation import read_run


def _by_topic(path: Path) -> dict[str, dict[str, float]]:
    """Topic -> doc id -> score, the doc ids in rank order."""
    return {topic_id: dict(ranked) for topic_id, ranked in read_run(path).items()}


def _by_query(path: Path) -> dict[str, dict[str, float]]:
    """Query id -> passage key -> teacher score, the keys in mined order."""
    return {query_id: dict(scored) for query_id, scored in read_distill_file(path).items()}


def compare(old: dict[str, dict[str, float]], new: dict[str, dict[str, float]]) -> tuple[int, int, float]:
    """(lists whose ids changed or moved, lists in either, largest absolute score difference of an id in both)."""
    names = old.keys() | new.keys()
    changed, largest = 0, 0.0
    for name in names:
        before, after = old.get(name, {}), new.get(name, {})
        changed += list(before) != list(after)
        for key in before.keys() & after.keys():
            largest = max(largest, abs(before[key] - after[key]))
    return changed, len(names), largest


def _means(path: Path) -> str:
    """The mean nDCG and recall of a metrics file written by ``xlir evaluate``, or ``absent``."""
    if not path.exists():
        return "absent"
    record = json.loads(path.read_text(encoding="utf-8"))
    mean = record["mean"]
    return f"ndcg@{record['ndcg_k']}={mean['ndcg']!r} recall@{record['recall_k']}={mean['recall']!r}"


def report(old: Path, new: Path) -> list[str]:
    before = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
    after = json.loads((new / "manifest.json").read_text(encoding="utf-8"))
    lines = [f"manifest: {len(before)} entries in OLD, {len(after)} in NEW"]
    for what, names in (
        ("added", sorted(after.keys() - before.keys())),
        ("removed", sorted(before.keys() - after.keys())),
        ("changed", sorted(name for name in before.keys() & after.keys() if before[name] != after[name])),
    ):
        lines.append(f"{what}: {len(names)}")
        lines.extend(f"  {name}" for name in names)
    old_runs = {path.name for path in (old / "runs").glob("*.run")}
    new_runs = {path.name for path in (new / "runs").glob("*.run")}
    for name in sorted(old_runs | new_runs):
        if name not in old_runs or name not in new_runs:
            lines.append(f"run {name}: only in {'NEW' if name in new_runs else 'OLD'}")
        else:
            changed, topics, largest = compare(_by_topic(old / "runs" / name), _by_topic(new / "runs" / name))
            lines.append(
                f"run {name}: {changed} of {topics} topics changed ranking, largest score difference {largest!r}"
            )
        metrics = [tree / "metrics" / f"{Path(name).stem}.json" for tree in (old, new)]
        if any(path.exists() for path in metrics):
            lines.append(f"  mean: OLD {_means(metrics[0])}, NEW {_means(metrics[1])}")
    pairs = [tree / "distill" / "pairs.jsonl" for tree in (old, new)]
    if all(path.exists() for path in pairs):
        changed, queries, largest = compare(*map(_by_query, pairs))
        lines.append(
            f"distill pairs.jsonl: {changed} of {queries} queries changed passages, "
            f"largest teacher score difference {largest!r}"
        )
    elif any(path.exists() for path in pairs):
        lines.append(f"distill pairs.jsonl: only in {'NEW' if pairs[1].exists() else 'OLD'}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="output tree before the change")
    parser.add_argument("new", type=Path, help="output tree after the change")
    args = parser.parse_args()
    print("\n".join(report(args.old, args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
