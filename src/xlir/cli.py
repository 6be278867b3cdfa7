"""Command-line entry point composing the retrieval pipelines.

Commands map one-to-one onto library operations: ``psq-translate``,
``index-lexical``, ``index-dense``, ``shard-plan``, ``search``, ``fuse``,
``mine-distill``, and ``evaluate``. Shared parameters can come from an INI
config file (sections ``collection``, ``psq``, ``lexical``, ``dense``,
``shards``, ``search``, ``output``), and unknown sections and keys are
rejected. A setting is taken from its flag, then from the config file, then
from the built-in default: ``main`` makes the config values the command's
parser defaults and parses again, so commands read every setting from
``args``. Every command validates its inputs before writing any output, exits
0 on success and nonzero with a diagnostic on failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import corpus as corpus_mod
from . import dense as dense_mod
from . import distill as distill_mod
from . import evaluation as eval_mod
from . import lexical as lexical_mod
from . import psq as psq_mod
from . import search as search_mod
from . import shards as shards_mod
from .errors import FormatError, ValidationError, XlirError, read_jsonl

logger = logging.getLogger("xlir")


def _key(field_name: str) -> str:
    """A parameter field's config key and ``args`` attribute: ``lambda`` sets ``lambda_``."""
    return field_name.rstrip("_")


def _field_kinds(cls: type) -> dict[str, type]:
    """Config key -> value type for each field of a parameter dataclass; ``int | None`` reads as ``int``."""
    return {_key(name): (get_args(kind) or (kind,))[0] for name, kind in get_type_hints(cls).items()}


_CONFIG_SCHEMA = {
    "collection": {
        "docs": str,
        "topics": str,
        "embeddings": str,
        "query_embeddings": str,
        "qrels": str,
    },
    "psq": {"cum_mass": float, "max_alts": int},
    "lexical": _field_kinds(lexical_mod.LexicalParams),
    "dense": _field_kinds(dense_mod.DenseIndexParams),
    "shards": {"window_months": int},
    "search": {"variant": str, "scorer": str, "rm3": bool, "k": int},
    "output": {"run_tag": str},
}


def load_config(path: str | Path | None) -> dict[str, dict]:
    """Parse an INI config file, rejecting unknown sections and keys."""
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    config: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        schema = _CONFIG_SCHEMA[section]
        config[section] = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ValidationError(f"{path}: unknown config key {key!r} in [{section}]")
            kind = schema[key]
            try:
                if kind is bool:
                    config[section][key] = parser.getboolean(section, key)
                else:
                    config[section][key] = kind(raw)
            except ValueError:
                raise FormatError(f"{path}: bad value {raw!r} for {section}.{key}") from None
    return config


def _require_path(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{what} {path} does not exist")
    return path


def _resolve_path(value: str | None, key: str, what: str) -> Path:
    """A path from a flag or the [collection] config section."""
    if value is None:
        raise ValidationError(f"no {what} given: pass a flag or set collection.{key} in the config")
    return _require_path(value, what)


def _params(cls: type, args: argparse.Namespace):
    """A ``cls`` dataclass from the values ``args`` holds for its fields; the rest keep their defaults."""
    given = {f.name: getattr(args, _key(f.name), None) for f in dataclass_fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _read_bags(path: Path) -> list[tuple[str, dict[str, float]]]:
    bags: list[tuple[str, dict[str, float]]] = []
    for lineno, record in read_jsonl(path):
        try:
            doc_id, weights = record["id"], record["weights"]
            # A weight must be a JSON number: float() would also take numeric text, and true is an int.
            if isinstance(doc_id, str) and all(type(w) in (int, float) for w in weights.values()):
                bags.append((doc_id, {t: float(w) for t, w in weights.items()}))
                continue
        except (KeyError, AttributeError, OverflowError):  # OverflowError: an integer too large for a float
            pass
        raise FormatError(f"{path}:{lineno}: expected an {{'id': string, 'weights': {{term: number}}}} record")
    return bags


def _write_bags(path: Path, bags: list[tuple[str, dict[str, float]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, weights in bags:
            quantized = {t: float(np.float32(w)) for t, w in sorted(weights.items())}
            fh.write(json.dumps({"id": doc_id, "weights": quantized}, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_psq_translate(args: argparse.Namespace) -> int:
    docs_path = _resolve_path(args.docs, "docs", "document file")
    table_path = _require_path(args.table, "translation table")
    docs = corpus_mod.ingest_collection(docs_path)
    if args.lang is not None:
        docs = [doc for doc in docs if doc.lang == args.lang]
        if not docs:
            raise ValidationError(f"no documents with lang {args.lang!r} in {docs_path}")
    table = psq_mod.prune_table(psq_mod.load_table(table_path), cum_mass=args.cum_mass, max_alts=args.max_alts)
    start = time.perf_counter()
    bags = []
    for doc in docs:
        counts = Counter(corpus_mod.document_tokens(doc))
        bags.append((doc.doc_id, psq_mod.translate_doc(counts, table)))
    logger.info(
        "event=psq_translate docs=%d sources=%d elapsed_ms=%.1f",
        len(bags),
        len(table),
        (time.perf_counter() - start) * 1e3,
    )
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    _write_bags(Path(args.output), bags)
    return 0


def cmd_index_lexical(args: argparse.Namespace) -> int:
    bags = _read_bags(_require_path(args.bags, "weighted bag file"))
    start = time.perf_counter()
    index = lexical_mod.build_index(bags)
    lexical_mod.save_index(index, Path(args.output))
    logger.info(
        "event=index_lexical docs=%d terms=%d elapsed_ms=%.1f",
        len(bags),
        len(index.terms),
        (time.perf_counter() - start) * 1e3,
    )
    return 0


def cmd_index_dense(args: argparse.Namespace) -> int:
    params = _params(dense_mod.DenseIndexParams, args)
    embeddings = dense_mod.load_embeddings(_resolve_path(args.embeddings, "embeddings", "embedding file"))
    dense_mod.save_dense_index(dense_mod.build_dense_index(embeddings, params), Path(args.output))
    return 0


def cmd_shard_plan(args: argparse.Namespace) -> int:
    docs = corpus_mod.ingest_collection(_resolve_path(args.docs, "docs", "document file"))
    plan = shards_mod.plan_shards(docs, window_months=args.window_months)
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    plan.save(args.output)
    logger.info("event=shard_plan docs=%d shards=%d", len(docs), plan.num_shards)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    index_dir = _require_path(args.index, "index directory")
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")
    if args.shard_plan is not None and args.topics is None:
        # A plan only takes effect through the date filters of topics.
        raise ValidationError("--shard-plan needs topics to filter by date: pass --topics or set collection.topics")
    start = time.perf_counter()
    plan = None
    if args.shard_plan is not None:
        plan = shards_mod.ShardPlan.load(_require_path(args.shard_plan, "shard plan"))
    searcher = search_mod.open_index(index_dir, plan)
    lexical = searcher.engine == "lexical"
    topics: list[corpus_mod.Topic] = []
    if lexical or args.topics is not None:
        topics = corpus_mod.ingest_topics(_resolve_path(args.topics, "topics", "topic file"))
    if lexical:
        options = {"scorer": args.scorer, "rm3": args.rm3, "params": _params(lexical_mod.LexicalParams, args)}
        tokenize = corpus_mod.DEFAULT_TOKENIZER
        queries = [(t.topic_id, tokenize(corpus_mod.form_query(t, args.variant))) for t in topics]
    else:
        # A given nprobe or candidate cap overrides the value stored in the index.
        options = {"nprobe": args.nprobe, "candidate_cap": args.candidate_cap}
        emb_path = _resolve_path(args.query_embeddings, "query_embeddings", "query embeddings")
        queries = list(dense_mod.load_embeddings(emb_path).items())
    filters = {t.topic_id: t.dates for t in topics}

    def run_query(item: tuple) -> list[tuple[str, float]]:
        query_id, query = item
        date_filter = filters.get(query_id, corpus_mod.DateFilter())
        return searcher.search(query, date_filter, args.k, query_id=query_id, **options)

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        run = dict(zip([query_id for query_id, _ in queries], pool.map(run_query, queries)))

    logger.info(
        "event=search kind=%s topics=%d entries=%d elapsed_ms=%.1f",
        searcher.engine,
        sum(map(bool, run.values())),
        sum(map(len, run.values())),
        (time.perf_counter() - start) * 1e3,
    )
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    eval_mod.write_run(args.output, run, args.run_tag)
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValidationError(f"k must be >= 1, got {args.k}")
    run_paths = [_require_path(p, "run file") for p in args.runs]
    runs = [eval_mod.read_run(path) for path in run_paths]
    fused = {
        topic_id: shards_mod.fuse_multilingual(
            [run[topic_id] for run in runs if topic_id in run], k=args.k, normalize=args.normalize
        )
        for topic_id in sorted(set().union(*runs))
    }
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    eval_mod.write_run(args.output, fused, args.run_tag)
    logger.info("event=fuse runs=%d topics=%d entries=%d", len(runs), len(fused), sum(map(len, fused.values())))
    return 0


def cmd_mine_distill(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValidationError(f"k must be >= 1, got {args.k}")
    index_dir = _require_path(args.index, "index directory")
    if search_mod.index_engine(index_dir) != "dense":
        raise ValidationError("mine-distill requires a dense index")
    # Mining returns passage keys, so unlike search it never parses them into document ids.
    index = dense_mod.load_dense_index(index_dir)
    queries = dense_mod.load_embeddings(_require_path(args.query_embeddings, "query embeddings"))
    pairs: distill_mod.DistillSet = {}
    for query_id, vectors in queries.items():
        # The mining engine's own scores stand in for teacher scores; an
        # external reranker replaces them downstream.
        scored = dense_mod.search_dense(index, vectors)[: args.k]
        if len(scored) < 2:
            logger.info("event=mine_distill topic=%s skipped=too_few_passages", query_id)
            continue
        pairs[query_id] = scored
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    distill_mod.write_distill_file(args.output, pairs)
    logger.info("event=mine_distill queries=%d written=%d", len(queries), len(pairs))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run_path = _require_path(args.run, "run file")
    qrels_path = _resolve_path(args.qrels, "qrels", "qrels file")
    report = eval_mod.evaluate(run_path, qrels_path, ndcg_k=args.ndcg_k, recall_k=args.recall_k)
    for topic_id in sorted(report.per_topic):
        metrics = report.per_topic[topic_id]
        print(f"{topic_id}\tndcg@{report.ndcg_k}={metrics['ndcg']:.4f}\trecall@{report.recall_k}={metrics['recall']:.4f}")
    print(f"mean\tndcg@{report.ndcg_k}={report.mean_ndcg:.4f}\trecall@{report.recall_k}={report.mean_recall:.4f}")
    for topic_id in report.unjudged_topics:
        print(f"unjudged\t{topic_id}")
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser(config: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The ``xlir`` parser; the values of ``config`` (from ``load_config``) replace the
    built-in defaults of every command, and an explicit flag still wins over them."""
    parser = argparse.ArgumentParser(prog="xlir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psq-translate", help="translate documents into query-language bags")
    p.add_argument("--docs", help="document JSONL (or collection.docs in the config)")
    p.add_argument("--table", required=True, help="TSV translation table source<TAB>target<TAB>prob")
    p.add_argument("--output", required=True, help="output JSONL bag file")
    p.add_argument("--lang", help="only translate documents with this language code")
    p.add_argument("--cum-mass", type=float, default=psq_mod.DEFAULT_CUM_MASS, help="pruning cumulative mass")
    p.add_argument("--max-alts", type=int, default=psq_mod.DEFAULT_MAX_ALTS, help="pruning max translations per source")
    p.add_argument("--config")
    p.set_defaults(func=cmd_psq_translate)

    p = sub.add_parser("index-lexical", help="build an inverted index from weighted bags")
    p.add_argument("--bags", required=True)
    p.add_argument("--output", required=True, help="index directory")
    p.set_defaults(func=cmd_index_lexical)

    p = sub.add_parser("index-dense", help="build a compressed late-interaction index")
    p.add_argument("--embeddings", help="embedding file (or collection.embeddings in the config)")
    p.add_argument("--output", required=True, help="index directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--num-centroids", type=int, default=None)
    p.add_argument("--nprobe", type=int, default=None)
    p.add_argument("--candidate-cap", type=int, default=None)
    p.add_argument("--kmeans-iters", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_index_dense)

    p = sub.add_parser("shard-plan", help="plan date-window shards for a collection")
    p.add_argument("--docs", help="document JSONL (or collection.docs in the config)")
    p.add_argument("--window-months", type=int, default=3)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_shard_plan)

    p = sub.add_parser("search", help="run topics or query embeddings against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--output", required=True, help="TREC run file")
    p.add_argument("--topics")
    p.add_argument("--shard-plan", help="date the indexed documents, so topic date filters restrict the search")
    p.add_argument("--variant", choices=corpus_mod.QUERY_VARIANTS, default="TD")
    p.add_argument("--scorer", choices=lexical_mod.SCORERS, default="bm25")
    p.add_argument("--rm3", action="store_true")
    p.add_argument("--query-embeddings")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--run-tag", default="xlir")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--nprobe", type=int, default=None)
    p.add_argument("--candidate-cap", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fuse", help="merge per-language runs over disjoint subcollections")
    p.add_argument("runs", nargs="+")
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--normalize", action="store_true", help="per-run min-max before merging")
    p.add_argument("--run-tag", default="fused")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("mine-distill", help="mine hard passages for distillation training data")
    p.add_argument("--index", required=True)
    p.add_argument("--query-embeddings", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_mine_distill)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", help="qrels file (or collection.qrels in the config)")
    p.add_argument("--ndcg-k", type=int, default=20)
    p.add_argument("--recall-k", type=int, default=1000)
    p.add_argument("--output", help="write metrics as JSON")
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    values = {key: value for section in (config or {}).values() for key, value in section.items()}
    for p in sub.choices.values():
        p.set_defaults(**values)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        config = load_config(getattr(args, "config", None))
        if config:
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (XlirError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
