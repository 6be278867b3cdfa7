#!/usr/bin/env python3
"""Run the full synthetic experiment pipeline end to end.

Generates the bundled tri-lingual corpus (500 docs, 10 topics, 3 languages),
then drives the CLI through every retrieval route:

* per-language PSQ document translation, lexical indexing, and HMM search;
* multilingual fusion of the per-language runs;
* BM25+RM3 search on one language;
* a date-window plan, with which one language's lexical index is searched
  under the topics' date filters;
* a dense index searched with query embeddings, once without and once with
  the plan and the topics' date filters;
* hard-passage mining for distillation;
* evaluation of every run against the synthetic qrels.

All artifacts land under --output together with a manifest of SHA-256 file
hashes; two invocations with the same seed produce byte-identical trees.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from xlir.cli import main as xlir_main

LANGUAGES = ("fas", "rus", "zho")


def run(argv: list[str]) -> None:
    code = xlir_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"pipeline step failed ({code}): xlir {' '.join(map(str, argv))}")


def hash_tree(root: Path, skip: set[str]) -> dict[str, str]:
    manifest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            manifest[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=1000)
    args = parser.parse_args()

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    from xlir.synthetic import generate, write_corpus

    corpus = generate(seed=args.seed)
    paths = write_corpus(out / "data", corpus)
    qrels = paths["qrels"]
    runs = out / "runs"
    metrics = out / "metrics"

    # Sparse route: PSQ translation, per-language HMM runs, multilingual fusion.
    for lang in LANGUAGES:
        run(["psq-translate", "--docs", paths["docs"], "--table", paths[f"table_{lang}"],
             "--lang", lang, "--output", out / "bags" / f"{lang}.jsonl"])
        run(["index-lexical", "--bags", out / "bags" / f"{lang}.jsonl",
             "--output", out / "idx" / f"lex-{lang}"])
        run(["search", "--index", out / "idx" / f"lex-{lang}", "--topics", paths["topics"],
             "--variant", "TD", "--scorer", "hmm", "--k", args.k,
             "--run-tag", f"psq_hmm_td_{lang}", "--output", runs / f"psq_hmm_td_{lang}.run"])
    run(["fuse", *[runs / f"psq_hmm_td_{lang}.run" for lang in LANGUAGES],
         "--k", args.k, "--run-tag", "psqraw_td", "--output", runs / "psq_hmm_td_mlir.run"])

    run(["search", "--index", out / "idx" / "lex-fas", "--topics", paths["topics"],
         "--variant", "TD", "--scorer", "bm25", "--rm3", "--k", args.k,
         "--run-tag", "bm25_rm3_td_fas", "--output", runs / "bm25_rm3_td_fas.run"])

    # Topic date filters over the same lexical index, through the date-window plan.
    plan = out / "shards" / "plan.json"
    run(["shard-plan", "--docs", paths["docs"], "--window-months", "3", "--output", plan])
    run(["search", "--index", out / "idx" / "lex-fas", "--shard-plan", plan, "--topics", paths["topics"],
         "--variant", "TD", "--scorer", "hmm", "--k", args.k,
         "--run-tag", "psq_hmm_td_fas_sharded",
         "--output", runs / "psq_hmm_td_fas_sharded.run"])

    # Dense route: compressed late-interaction index over all languages.
    run(["index-dense", "--embeddings", paths["passage_embeddings"],
         "--output", out / "idx" / "dense", "--num-centroids", "256",
         "--kmeans-iters", "8", "--seed", args.seed])
    run(["search", "--index", out / "idx" / "dense",
         "--query-embeddings", paths["query_embeddings"], "--k", args.k,
         "--run-tag", "dense_td", "--output", runs / "dense_td.run"])

    run(["search", "--index", out / "idx" / "dense", "--shard-plan", plan, "--topics", paths["topics"],
         "--query-embeddings", paths["query_embeddings"], "--k", args.k,
         "--run-tag", "dense_td_sharded", "--output", runs / "dense_td_sharded.run"])

    run(["mine-distill", "--index", out / "idx" / "dense",
         "--query-embeddings", paths["query_embeddings"], "--k", "50",
         "--output", out / "distill" / "pairs.jsonl"])

    for run_file in sorted(runs.glob("*.run")):
        run(["evaluate", "--run", run_file, "--qrels", qrels,
             "--output", metrics / f"{run_file.stem}.json"])

    manifest = hash_tree(out, skip={"manifest.json"})
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    elapsed = time.perf_counter() - started
    print(f"pipeline complete: {len(manifest)} files under {out} in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
