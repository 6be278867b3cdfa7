import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_snapshot.py"


def test_tiny_snapshot_records_each_workload_and_one_traced_run(tmp_path):
    argv = [sys.executable, str(SCRIPT), "--label", "t", "--seed", "3", "--seconds", "1", "--scale", "tiny",
            "--output-dir", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    runs = snapshot["runs"]
    assert [(run["env"]["workload"], run["env"]["trace"]) for run in runs] == [
        *((name, 0) for name in names), (names[0], 1)
    ]
    assert all(run["env"]["seed"] == 3 and run["result"]["correct"] for run in runs)
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    assert all(set(run["result"]["metrics"]) == end_to_end for run in runs[:-1])
    assert "dense.stage2_ms" in runs[-1]["result"]["metrics"]


def test_failed_run_leaves_no_file(tmp_path):
    # A directory holding only the benchmark and this script is not a checkout perfbench can run.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts")
    argv = [sys.executable, "scripts/bench_snapshot.py", "--label", "t", "--seed", "3", "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "bench_snapshot: perfbench/run.py --workload dense-query" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))
