#!/usr/bin/env python3
"""Record one snapshot of the benchmark in BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --label LABEL --seed 11

Runs ``perfbench/run.py`` untraced once per workload of BENCHMARK.json, then
traced once (on the first workload; a traced run adds brief traced runs of the
others, so it reports every per-layer metric), all on one seed. The file holds,
per run, the command's arguments, its ``env`` line and its result line, parsed
as JSON. A run that fails leaves no file, and the script exits non-zero.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``; ``--scale tiny``
runs the self-test's sizes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One ``perfbench/run.py`` run: its arguments and its ``env`` and result lines."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale", scale]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench_snapshot: perfbench/run.py {' '.join(argv)} exited with code {proc.returncode}")
    return {"args": argv, "env": json.loads(lines[-2].removeprefix("env ")), "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--output-dir", type=Path, default=ROOT, help="default: the repository root")
    args = parser.parse_args()

    workloads = [workload["name"] for workload in spec["workloads"]]
    runs = [run_benchmark(name, args.seed, args.seconds, 0, args.scale) for name in workloads]
    runs.append(run_benchmark(workloads[0], args.seed, args.seconds, 1, args.scale))
    out = args.output_dir / f"BENCH_{args.label}.json"
    snapshot = {"label": args.label, "seed": args.seed, "runs": runs}
    out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
