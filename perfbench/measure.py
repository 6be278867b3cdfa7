"""The measured process of the ``dense-query`` and ``lexical-query`` workloads.

Reads only the generated input files. Sets up the engine several times
(read inputs, build, save, load), then runs a closed loop with one client
over the topics until the time budget is spent. The first round's outputs
go to ``outputs.jsonl`` for the oracles; later repeats of a query must give
the same output. Writes ``result.json`` (and, when traced, the spans and
events) into the work directory.

    python3 perfbench/measure.py --workload dense-query --inputs DIR --work DIR \
        --seconds 15 --trace 0 [--scale tiny] [--brief]
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
import traceback
from collections import Counter
from pathlib import Path

from common import blas_threads, use_source_tree, workload_config, write_json

use_source_tree()

from tracing import Tracer  # noqa: E402
from xlir import corpus, dense, lexical, psq, shards  # noqa: E402


class DenseQuery:
    """Query = ``search_dense`` + ``maxp_aggregate`` + the top-k cut."""

    configs = [None]

    def __init__(self, cfg: dict, inputs: Path, work: Path):
        self.params = dense.DenseIndexParams(
            **cfg["index"], nprobe=cfg["search"]["nprobe"], candidate_cap=cfg["search"]["candidate_cap"]
        )
        self.k = cfg["search"]["k"]
        self.inputs = inputs
        self.index_dir = work / "dense-index"

    def setup(self) -> None:
        embeddings = dense.load_embeddings(self.inputs / "embeddings" / "passages.liemb")
        index = dense.build_dense_index(embeddings, self.params)
        dense.save_dense_index(index, self.index_dir)
        self.index = dense.load_dense_index(self.index_dir)
        self.queries = list(dense.load_embeddings(self.inputs / "embeddings" / "queries.liemb").items())
        self.passages = len(embeddings)
        self.tokens = sum(matrix.shape[0] for matrix in embeddings.values())

    @property
    def topic_ids(self) -> list[str]:
        return [topic_id for topic_id, _ in self.queries]

    def query(self, topic: int, config: None) -> tuple[dict, int]:
        _, vectors = self.queries[topic]
        scored = dense.search_dense(self.index, vectors, self.params)
        docs = dense.maxp_aggregate((corpus.parse_passage_key(key)[0], s) for key, s in scored)[: self.k]
        return {"passages": scored, "docs": docs}, len(docs)

    def facts(self) -> dict:
        return {"index_dirs": [str(self.index_dir)], "passages": self.passages, "tokens": self.tokens}


class LexicalQuery:
    """Query = tokenize, drop OOV terms, ``search_lexical`` per language, ``fuse_multilingual``."""

    def __init__(self, cfg: dict, inputs: Path, work: Path):
        self.cfg = cfg
        self.params = lexical.LexicalParams(**cfg["lexical"])
        self.configs = cfg["search"]["configs"]
        self.variant = cfg["search"]["variant"]
        self.k = cfg["search"]["k"]
        self.inputs = inputs
        self.work = work
        self.tokenizer = corpus.Tokenizer()

    def setup(self) -> None:
        docs = corpus.ingest_collection(self.inputs / "docs.jsonl")
        self.topics = corpus.ingest_topics(self.inputs / "topics.jsonl")
        self.indexes = {}
        for lang in sorted({doc.lang for doc in docs}):
            table = psq.prune_table(psq.load_table(self.inputs / "tables" / f"{lang}.tsv"), **self.cfg["psq"])
            bags = [
                (doc.doc_id, psq.translate_doc(Counter(corpus.document_tokens(doc)), table))
                for doc in docs
                if doc.lang == lang
            ]
            index_dir = self.work / f"lexical-{lang}"
            lexical.save_index(lexical.build_index(bags), index_dir)
            vocabulary = {term for _, bag in bags for term, weight in bag.items() if weight > 0}
            self.indexes[lang] = (lexical.load_index(index_dir), vocabulary)

    @property
    def topic_ids(self) -> list[str]:
        return [topic.topic_id for topic in self.topics]

    def query(self, topic: int, config: str) -> tuple[dict, int]:
        scorer, _, rm3 = config.partition("+")
        terms = self.tokenizer(corpus.form_query(self.topics[topic], self.variant))
        per_language = {}
        for lang, (index, vocabulary) in self.indexes.items():
            known = [term for term in terms if term in vocabulary]
            per_language[lang] = (
                lexical.search_lexical(index, known, scorer=scorer, rm3=bool(rm3), k=self.k, params=self.params)
                if known
                else []
            )
        fused = shards.fuse_multilingual(list(per_language.values()), k=self.k)
        return {"languages": per_language, "fused": fused}, len(fused)

    def facts(self) -> dict:
        return {"index_dirs": [str(self.work / f"lexical-{lang}") for lang in self.indexes]}


WORKLOADS = {"dense-query": DenseQuery, "lexical-query": LexicalQuery}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--brief", action="store_true", help="one set-up and one round (run.py's profile runs)")
    args = parser.parse_args()

    cfg = workload_config(args.workload, args.scale, args.brief)
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](cfg, args.inputs, args.work)
    tracer = Tracer()

    setup_s = []
    for repeat in range(cfg["setup_repeats"]):
        with tracer.recording(bool(args.trace)):
            start = time.perf_counter()
            with tracer.span("bench.setup", f"setup-{repeat}"):
                workload.setup()
            setup_s.append(time.perf_counter() - start)

    # Query i runs topic (i // block) mod topics under config i mod block, so a
    # partial round still holds every config equally. Traced runs trace every
    # other topic, flipping each round, so each query is seen both ways.
    configs = workload.configs
    block = len(configs)
    round_size = block * len(workload.topic_ids)
    min_queries = max(cfg["min_queries"], cfg["min_rounds"] * round_size)
    queries = []
    first_digest: dict[int, int] = {}
    loop_start = time.perf_counter()
    with open(args.work / "outputs.jsonl", "w", encoding="utf-8") as outputs:
        i = 0
        while i < min_queries or i % block or time.perf_counter() - loop_start < args.seconds:
            position = i % round_size
            topic = (i // block) % len(workload.topic_ids)
            config = configs[i % block]
            qid = f"q{i}:{workload.topic_ids[topic]}:{config}"
            traced = bool(args.trace) and (topic + i // round_size) % 2 == 1
            record = {"i": i, "position": position, "config": config, "qid": qid, "traced": traced, "error": None}
            with tracer.recording(traced):
                start = time.perf_counter()
                try:
                    with tracer.span("bench.query", qid) as span:
                        output, count = workload.query(topic, config)
                        if span is not None:
                            span.count = count
                except Exception:
                    output = None
                    record["error"] = traceback.format_exc()
                record["ms"] = (time.perf_counter() - start) * 1e3
            if output is not None:
                text = json.dumps(output)
                if position not in first_digest:
                    first_digest[position] = hash(text)
                    line = {"qid": qid, "topic_id": workload.topic_ids[topic], "config": config, "output": output}
                    outputs.write(json.dumps(line) + "\n")
                elif hash(text) != first_digest[position]:
                    record["error"] = "output differs from the first run of the same query"
            queries.append(record)
            i += 1
    result = {"setup_s": setup_s, "queries": queries, "blas_threads": blas_threads(), **workload.facts()}
    write_json(args.work / "result.json", result)
    if args.trace:
        write_json(args.work / "trace.json", tracer.dump())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
