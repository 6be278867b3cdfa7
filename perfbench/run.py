"""Benchmark of the xlir engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-query --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from the seed (cached per seed under
``.perfbench/inputs``), runs the measured process, checks every output
against an independent oracle, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics. A
traced run ends with a brief traced run of each other workload, for the
layers the named one does not reach. The line before the result records the
environment and sample counts. NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import HERE, ROOT, tree_bytes, use_source_tree, workload_config
from layers import Trace, layer_metrics, p90

STATE = ROOT / ".perfbench"
REQUIRED = ("BENCHMARK.json", "src/xlir/__init__.py", "scripts/run_pipeline.py", "tests/golden/pipeline_manifest.json")
KEEP_INPUTS = 4
MIB = 2**20


def child_env(cfg: dict) -> tuple[dict, int]:
    """The measured process's environment: BLAS threads capped at nproc, engine from ``src``."""
    threads = min(cfg["blas_threads"], os.cpu_count() or 1)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env, threads


def run_child(argv: list, env: dict, log: Path) -> tuple[int, int, float]:
    """Run one measured process to completion: (exit code, peak RSS in KiB, wall seconds)."""
    with open(log, "w", encoding="utf-8") as fh:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *map(str, argv)], env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, wall


def require_success(code: int, log: Path, what: str) -> None:
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-4000:]
        print(tail, file=sys.stderr)
        raise SystemExit(f"perfbench: {what} exited with code {code}")


def generate_inputs(cfg: dict, seed: int) -> Path:
    """Write the workload's synthetic inputs in the engine's file formats, once per seed."""
    from xlir.synthetic import generate, write_corpus

    generator = cfg["generator"]
    key = hashlib.sha256(json.dumps(generator, sort_keys=True).encode()).hexdigest()[:10]
    root = STATE / "inputs"
    target = root / f"{cfg['name']}-{key}-seed{seed}"
    marker = target / "complete"
    if not marker.exists():
        shutil.rmtree(target, ignore_errors=True)
        write_corpus(target, generate(seed=seed, **generator))
        marker.write_text(json.dumps({"seed": seed, **generator}), encoding="utf-8")
        cached = sorted(root.glob("*/complete"), key=lambda p: p.stat().st_mtime, reverse=True)
        for old in cached[KEEP_INPUTS:]:
            shutil.rmtree(old.parent, ignore_errors=True)
    return target


def run_queries(args, cfg: dict, env: dict) -> tuple[dict, int, int, dict]:
    import oracles
    from xlir import evaluation

    inputs = generate_inputs(cfg, args.seed)
    work = STATE / "work" / cfg["name"]
    work.mkdir(parents=True, exist_ok=True)
    log = STATE / "work" / f"{cfg['name']}.log"
    code, maxrss_kb, _ = run_child(
        [HERE / "measure.py", "--workload", cfg["name"], "--inputs", inputs, "--work", work,
         "--seconds", args.seconds, "--trace", args.trace, "--scale", args.scale, *(["--brief"] if args.brief else [])],
        env,
        log,
    )
    require_success(code, log, "measured process")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    outputs = oracles.read_outputs(work / "outputs.jsonl")
    context = {}
    if cfg["name"] == "dense-query":
        index_dir = Path(result["index_dirs"][0])
        errors, rankings, overlap = oracles.check_dense(inputs, index_dir, outputs, cfg["search"]["k"])
        context = {"passages": result["passages"], "dense_index_bytes": tree_bytes(index_dir),
                   "oracle_top20_overlap": overlap}
    else:
        errors, rankings = oracles.check_lexical(inputs, work, cfg, outputs)
    for qid, reason in list(errors.items())[:5]:
        print(f"oracle: {qid}: {reason}", file=sys.stderr)

    # Timings cover every query that returned; a wrong answer counts in ``failed``.
    queries = result["queries"]
    wrong_positions = {q["position"] for q in queries if q["qid"] in errors}
    ok = [q for q in queries if q["error"] is None]
    failed = sum(q["error"] is not None or q["position"] in wrong_positions for q in queries)
    for q in queries:
        if q["error"] is not None:
            print(f"query {q['qid']}: {q['error'].strip().splitlines()[-1]}", file=sys.stderr)
            break
    if not ok:
        raise SystemExit("perfbench: no query returned")
    latencies = [q["ms"] for q in ok if not q["traced"]]
    facts = {"queries": len(queries), "timed_queries": len(latencies), "setups": len(result["setup_s"]),
             "blas_threads": result["blas_threads"]}

    if args.trace:
        trace = Trace([json.loads((work / "trace.json").read_text(encoding="utf-8"))])
        context.update(traced_ms=[q["ms"] for q in ok if q["traced"]], untraced_ms=latencies)
        facts["traced_queries"] = len(context["traced_ms"])
        return layer_metrics(trace, context), len(queries), failed, facts

    by_position, by_config = defaultdict(list), defaultdict(list)
    for q in ok:
        by_position[q["position"]].append(q["ms"])
        by_config[q["config"]].append(q["ms"])
    setup_s = statistics.median(result["setup_s"])
    ndcg, recall = oracles.quality(rankings, evaluation.read_qrels(inputs / "qrels.txt"))
    metrics = {
        "setup_s": setup_s,
        # Each lexical config has its own latency cluster, and an even mix of four
        # puts the pooled median in the gap between two of them: take it per config.
        "query_p50_ms": statistics.mean(map(statistics.median, by_config.values())),
        "query_p90_ms": p90(latencies),
        "qps": len(latencies) / (sum(latencies) / 1e3),
        # Input files to a complete run: set-up plus every query of a round, each
        # at the median of its repeats.
        "pipeline_s": setup_s + sum(map(statistics.median, by_position.values())) / 1e3,
        "peak_rss_mb": maxrss_kb / 1024,
        "index_mb": sum(tree_bytes(Path(d)) for d in result["index_dirs"]) / MIB,
        "ndcg_20": ndcg,
        "recall_1000": recall,
    }
    return metrics, len(queries), failed, facts


def run_pipeline(args, cfg: dict, env: dict) -> tuple[dict, int, int, dict]:
    import oracles
    from xlir import corpus, evaluation

    work = STATE / "work" / "pipeline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    every = bool(cfg.get("trace_every_pass"))
    min_passes = max(cfg["min_passes"], 2 if args.trace and not every else 1)
    passes, elapsed, quality = [], 0.0, None
    while len(passes) < min_passes or elapsed < args.seconds:
        n = len(passes)
        traced = bool(args.trace) and (every or n % 2 == 1)
        shutil.rmtree(out, ignore_errors=True)
        report_path = work / f"pass-{n}.json"
        started = time.monotonic()
        code, maxrss_kb, wall = run_child(
            [HERE / "pipeline_pass.py", "--output", out, "--report", report_path, "--started", repr(started),
             "--trace", int(traced), "--pass-id", f"pass-{n}"],
            env,
            work / f"pass-{n}.log",
        )
        elapsed += wall
        record = {"wall": wall, "maxrss_kb": maxrss_kb, "traced": traced, "code": code}
        record["error"] = f"pass exited with code {code}" if code else oracles.check_manifest(out, ROOT / cfg["golden"])
        if code == 0:
            record["report"] = json.loads(report_path.read_text(encoding="utf-8"))
            if quality is None:
                qrels = evaluation.read_qrels(out / "data" / "qrels.txt")
                quality = oracles.quality(oracles.pipeline_rankings(out), qrels)
                index_mb = tree_bytes(out / "idx") / MIB
                topics = len(corpus.ingest_topics(out / "data" / "topics.jsonl"))
        if record["error"] is not None:
            print(f"pass {n}: {record['error']}", file=sys.stderr)
        passes.append(record)

    # Timings cover every pass that completed; a wrong manifest counts in ``failed``.
    ok = [p for p in passes if p["code"] == 0]
    failed = sum(p["error"] is not None for p in passes)
    if not ok:
        raise SystemExit("perfbench: no pipeline pass completed")

    def per_topic_ms(record) -> list[float]:
        """Each ``xlir search`` step's wall time, shared by the topics it searched."""
        steps = [c for c in record["report"]["commands"] if c["name"].startswith("search")]
        return [(c["end"] - c["start"]) * 1e3 / topics for c in steps for _ in range(topics)]

    untraced = [p for p in ok if not p["traced"]]
    facts = {"passes": len(passes), "topic_searches_per_pass": len(per_topic_ms(ok[0])),
             "blas_threads": ok[0]["report"]["blas_threads"]}
    if args.trace:
        traced = [p for p in ok if p["traced"]]
        trace = Trace([p["report"] for p in traced])
        context = {"import_s": [p["report"]["import_s"] for p in ok],
                   "traced_ms": [statistics.mean(per_topic_ms(p)) for p in traced],
                   "untraced_ms": [statistics.mean(per_topic_ms(p)) for p in untraced]}
        return layer_metrics(trace, context), len(passes), failed, facts

    # Per pass, then the median over passes. The pass's p50 is its mean per-topic
    # latency: the steps' times cluster by route, so their median jumps between clusters.
    searched = [per_topic_ms(p) for p in untraced]
    metrics = {
        "setup_s": statistics.median(p["report"]["import_s"] for p in untraced),
        "query_p50_ms": statistics.median(statistics.mean(ms) for ms in searched),
        "query_p90_ms": statistics.median(p90(ms) for ms in searched),
        "qps": sum(map(len, searched)) / (sum(map(sum, searched)) / 1e3),
        "pipeline_s": statistics.median(p["wall"] for p in untraced),
        "peak_rss_mb": max(p["maxrss_kb"] for p in untraced) / 1024,
        "index_mb": index_mb,
        "ndcg_20": quality[0],
        "recall_1000": quality[1],
    }
    return metrics, len(passes), failed, facts


RUNNERS = {"dense-query": run_queries, "lexical-query": run_queries, "pipeline": run_pipeline}


def add_brief_runs(args, env: dict, own: tuple) -> tuple[dict, int, int, dict]:
    """Complete a traced run's per-layer metrics: each other workload runs
    briefly (one set-up and one round, or one pass), traced, and gives the
    metrics of its layers that the named workload's own work does not reach.
    Its oracles count in ``attempted`` and ``failed`` like the named one's."""
    metrics, attempted, failed, facts = own
    own_layers = set(workload_config(args.workload)["layers"])
    for name, runner in RUNNERS.items():
        cfg = workload_config(name, args.scale, brief=True)
        extra = [metric for metric in cfg["layers"] if metric not in own_layers]
        if name == args.workload or not extra:
            continue
        brief = argparse.Namespace(**{**vars(args), "workload": name, "seconds": 0.0, "brief": True})
        more, more_attempted, more_failed, more_facts = runner(brief, cfg, env)
        for metric in extra:
            if metric in more:
                metrics.setdefault(metric, more[metric])
        attempted += more_attempted
        failed += more_failed
        facts[f"brief {name}"] = more_facts
    return metrics, attempted, failed, facts


def environment(args, threads: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("dense-query", "lexical-query", "pipeline"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    parser.set_defaults(brief=False)
    args = parser.parse_args()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not an xlir checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    use_source_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    cfg = workload_config(args.workload, args.scale)
    env, threads = child_env(cfg)
    result = RUNNERS[args.workload](args, cfg, env)
    metrics, attempted, failed, facts = add_brief_runs(args, env, result) if args.trace else result

    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    unmeasured = sorted(set(units) - set(metrics))
    if unmeasured and not args.trace:
        raise SystemExit(f"perfbench: end-to-end metrics not measured: {unmeasured}")
    if unmeasured:
        # A layer that stopped logging an ``event=`` field shows as missing; the run goes on.
        print(f"perfbench: per-layer metrics not measured: {unmeasured}", file=sys.stderr)
    print("env " + json.dumps({**environment(args, threads), **facts}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
