import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_pipeline.py"


def _report(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def _tree(root, manifest, runs, metrics, pairs=None):
    (root / "runs").mkdir(parents=True)
    (root / "metrics").mkdir()
    (root / "manifest.json").write_text(json.dumps(manifest))
    if pairs is not None:
        (root / "distill").mkdir()
        records = [{"query_id": q, "passages": [{"pid": p, "teacher": t} for p, t in mined]} for q, mined in pairs]
        (root / "distill" / "pairs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    for name, rows in runs.items():
        lines = [f"{topic} Q0 {doc} {rank} {score} tag" for topic, doc, rank, score in rows]
        (root / "runs" / name).write_text("\n".join(lines) + "\n")
    for name, (ndcg, recall) in metrics.items():
        record = {"ndcg_k": 20, "recall_k": 1000, "mean": {"ndcg": ndcg, "recall": recall}, "per_topic": {}}
        (root / "metrics" / name).write_text(json.dumps(record))


def test_reports_manifest_entries_and_run_differences(tmp_path):
    same = [("1", "d1", 1, 2.0), ("1", "d2", 2, 1.0)]
    _tree(
        tmp_path / "old",
        {"kept": "a", "edited": "b", "gone": "c"},
        {
            "a.run": [*same, ("2", "d3", 1, 3.0), ("2", "d4", 2, 1.0)],
            "same.run": same,
            "old-only.run": same,
        },
        {"a.json": (0.5, 1.0), "old-only.json": (0.25, 0.5)},
    )
    _tree(
        tmp_path / "new",
        {"kept": "a", "edited": "B", "new-1": "d", "new-2": "e"},
        {
            # Topic 1 keeps its ranking with one score lowered by 0.25; topic 2 swaps its documents.
            "a.run": [("1", "d1", 1, 2.0), ("1", "d2", 2, 0.75), ("2", "d4", 1, 3.0), ("2", "d3", 2, 2.5)],
            "same.run": same,
        },
        # same.run has no metrics file in either tree, so it gets no mean line.
        {"a.json": (0.75, 1.0)},
    )
    assert _report(tmp_path) == [
        "manifest: 3 entries in OLD, 4 in NEW",
        "added: 2",
        "  new-1",
        "  new-2",
        "removed: 1",
        "  gone",
        "changed: 1",
        "  edited",
        "run a.run: 1 of 2 topics changed ranking, largest score difference 2.0",
        "  mean: OLD ndcg@20=0.5 recall@1000=1.0, NEW ndcg@20=0.75 recall@1000=1.0",
        "run old-only.run: only in OLD",
        "  mean: OLD ndcg@20=0.25 recall@1000=0.5, NEW absent",
        "run same.run: 0 of 1 topics changed ranking, largest score difference 0.0",
    ]


def test_reports_distill_pair_differences(tmp_path):
    same = ("q1", [("p1", 2.0), ("p2", 1.0)])
    _tree(tmp_path / "old", {}, {}, {}, [same, ("q2", [("p3", 3.0), ("p4", 1.0)]), ("q3", [("p5", 1.0), ("p6", 0.5)])])
    # q2 swaps its passages, p4's teacher score raised by 2.5; q3 keeps its list with one
    # score lowered by 0.25; q4 is new.
    new = [same, ("q2", [("p4", 3.5), ("p3", 3.0)]), ("q3", [("p5", 1.0), ("p6", 0.25)]), ("q4", [("p1", 1.0), ("p2", 0.0)])]
    _tree(tmp_path / "new", {}, {}, {}, new)
    assert _report(tmp_path)[-1] == "distill pairs.jsonl: 2 of 4 queries changed passages, largest teacher score difference 2.5"
    (tmp_path / "new" / "distill" / "pairs.jsonl").unlink()
    assert _report(tmp_path)[-1] == "distill pairs.jsonl: only in OLD"
