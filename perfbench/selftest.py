"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--scale tiny`` (tens of
documents and three topics; the pipeline runs its bundled corpus, whose
golden manifest fixes its size) and checks that:

* the last line is one JSON object with exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``, the run is correct and nothing failed, so
  every oracle passed;
* untraced, every end-to-end metric of BENCHMARK.json is printed with its unit;
* traced, every per-layer metric of BENCHMARK.json is printed with its unit,
  and together the workloads' own ``layers`` in ``workloads.json`` cover
  them all;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import HERE, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    if not lines[-2].startswith("env "):
        problems.append(f"{where}: no environment line before the result")
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    for name in units:
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
        elif got.get("unit") != units[name] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} printed as {got}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("dense-query", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    covered = set()
    for workload in WORKLOADS:
        covered.update(WORKLOADS[workload]["layers"])
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    uncovered = {m["name"] for m in SPEC["per_layer"]} - covered
    if uncovered:
        problems.append(f"per-layer metrics no workload reports: {sorted(uncovered)}")
    problems += check_bare_directory()
    for problem in problems:
        print(problem)
    print("self-test passed" if not problems else f"self-test FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
