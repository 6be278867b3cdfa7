"""Independent checks of the engine's outputs, run outside the timed loop.

Each check rebuilds the expected answer from the engine's public scoring
functions alone and returns, per query id, the reason its output is wrong.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from xlir import corpus, dense, evaluation, lexical, psq

DENSE_TOLERANCE = 1e-4  # loose enough for BLAS reordering of the exact MaxSim
LEXICAL_TOLERANCE = 1e-6  # relative; scores come from the same float64 formulas
OVERLAP_DEPTH = 20


def read_outputs(path: Path) -> Iterable[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _well_formed(results: list, k: int, known_docs) -> str | None:
    """Sorted by descending score, unique, finite, within k and from the collection."""
    if len(results) > k:
        return f"{len(results)} results for k={k}"
    docs = [doc for doc, _ in results]
    if len(set(docs)) != len(docs):
        return "duplicate documents"
    if any(doc not in known_docs for doc in docs):
        return "document outside the collection"
    scores = [score for _, score in results]
    if not all(math.isfinite(score) for score in scores):
        return "non-finite score"
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores not in descending order"
    return None


def _same_ranking(results: list, expected: dict[str, float], k: int) -> str | None:
    """The engine's list equals the oracle's top k, up to ties in exact score."""
    ranked = sorted(expected.items(), key=lambda entry: (-entry[1], entry[0]))[:k]
    if len(results) != len(ranked):
        return f"{len(results)} results, oracle ranks {len(ranked)}"
    seen = set()
    for rank, ((doc, score), (_, best)) in enumerate(zip(results, ranked), start=1):
        tolerance = LEXICAL_TOLERANCE * max(1.0, abs(best))
        if doc in seen or doc not in expected:
            return f"rank {rank}: unexpected document {doc}"
        seen.add(doc)
        if abs(score - expected[doc]) > tolerance or abs(score - best) > tolerance:
            return f"rank {rank}: {doc} scored {score!r}, oracle {expected[doc]!r}, oracle rank score {best!r}"
    return None


def check_dense(inputs: Path, index_dir: Path, outputs: Iterable[dict], k: int) -> tuple[dict, list, float]:
    """Exhaustive MaxSim over every reconstructed passage.

    Returns (errors by query id, (topic id, doc ranking) pairs, mean top-20
    document overlap with the oracle).
    """
    index = dense.load_dense_index(index_dir)
    codebook = index.codebook
    embeddings = dense.load_embeddings(inputs / "embeddings" / "passages.liemb")
    queries = dense.load_embeddings(inputs / "embeddings" / "queries.liemb")
    stored = {key: dense.decompress(dense.compress(m, codebook, key), codebook) for key, m in embeddings.items()}
    doc_of = {key: corpus.parse_passage_key(key)[0] for key in stored}
    all_docs = set(doc_of.values())
    errors, rankings, overlaps = {}, [], []
    for record in outputs:
        qid, output = record["qid"], record["output"]
        exact = {key: dense.maxsim(queries[record["topic_id"]], vectors) for key, vectors in stored.items()}
        problem = _well_formed(output["docs"], k, all_docs)
        for key, score in output["passages"]:
            if problem is None and (key not in exact or abs(score - exact[key]) > DENSE_TOLERANCE):
                problem = f"passage {key} scored {score!r}, oracle {exact.get(key)!r}"
        if problem:
            errors[qid] = problem
        best: dict[str, float] = {}
        for key, score in exact.items():
            best[doc_of[key]] = max(score, best.get(doc_of[key], -math.inf))
        oracle_top = sorted(best, key=lambda doc: (-best[doc], doc))[:OVERLAP_DEPTH]
        engine_top = {doc for doc, _ in output["docs"][:OVERLAP_DEPTH]}
        overlaps.append(len(engine_top.intersection(oracle_top)) / len(oracle_top))
        rankings.append((record["topic_id"], [doc for doc, _ in output["docs"]]))
    return errors, rankings, sum(overlaps) / len(overlaps)


def check_lexical(inputs: Path, work: Path, cfg: dict, outputs: Iterable[dict]) -> tuple[dict, list]:
    """Per-document ``bm25_score`` / ``hmm_score`` enumeration for plain queries,
    well-formed lists for RM3 queries, and the raw-score merge for fusion.

    Returns (errors by query id, (topic id, fused doc ranking) pairs).
    """
    params = lexical.LexicalParams(**cfg["lexical"])
    k = cfg["search"]["k"]
    tokenizer = corpus.Tokenizer()
    docs = corpus.ingest_collection(inputs / "docs.jsonl")
    topics = {topic.topic_id: topic for topic in corpus.ingest_topics(inputs / "topics.jsonl")}
    languages = {}
    for lang in sorted({doc.lang for doc in docs}):
        table = psq.prune_table(psq.load_table(inputs / "tables" / f"{lang}.tsv"), **cfg["psq"])
        bags = {
            doc.doc_id: psq.translate_doc(Counter(corpus.document_tokens(doc)), table)
            for doc in docs
            if doc.lang == lang
        }
        vocabulary = {term for bag in bags.values() for term, weight in bag.items() if weight > 0}
        languages[lang] = (lexical.load_index(work / f"lexical-{lang}"), bags, vocabulary)
    score_fns = {"bm25": lexical.bm25_score, "hmm": lexical.hmm_score}
    errors, rankings = {}, []
    for record in outputs:
        qid, output = record["qid"], record["output"]
        scorer, _, rm3 = record["config"].partition("+")
        terms = tokenizer(corpus.form_query(topics[record["topic_id"]], cfg["search"]["variant"]))
        problem = None
        for lang, results in output["languages"].items():
            index, bags, vocabulary = languages[lang]
            problem = _well_formed(results, k, bags)
            if problem is None and not rm3:
                known = [term for term in terms if term in vocabulary]
                expected = {}
                for doc_id, bag in bags.items():
                    if any(bag.get(term, 0.0) > 0 for term in known):
                        score = score_fns[scorer](index, known, doc_id, params)
                        if math.isfinite(score):
                            expected[doc_id] = score
                problem = _same_ranking(results, expected, k)
            if problem:
                problem = f"{lang}: {problem}"
                break
        pooled = [tuple(entry) for results in output["languages"].values() for entry in results]
        merged = sorted(pooled, key=lambda entry: (-entry[1], entry[0]))[:k]
        if problem is None and [tuple(entry) for entry in output["fused"]] != merged:
            problem = "fused list is not the raw-score merge of the language lists"
        if problem:
            errors[qid] = problem
        rankings.append((record["topic_id"], [doc for doc, _ in output["fused"]]))
    return errors, rankings


def check_manifest(pass_dir: Path, golden: Path) -> str | None:
    got = json.loads((pass_dir / "manifest.json").read_text(encoding="utf-8"))
    want = json.loads(golden.read_text(encoding="utf-8"))
    if got == want:
        return None
    differing = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    return f"manifest differs from {golden.name} in {len(differing)} entries, first {differing[:3]}"


def pipeline_rankings(pass_dir: Path) -> list:
    """(topic id, doc ranking) pairs of every run the pipeline wrote."""
    rankings = []
    qrels = evaluation.read_qrels(pass_dir / "data" / "qrels.txt")
    for run_path in sorted((pass_dir / "runs").glob("*.run")):
        by_topic = evaluation.ranking_from_entries(evaluation.read_run(run_path))
        rankings.extend((topic_id, by_topic.get(topic_id, [])) for topic_id in sorted(qrels))
    return rankings


def quality(rankings: list, qrels: dict) -> tuple[float, float]:
    """Mean nDCG@20 and Recall@1000 over rankings whose topic has a relevant
    judgment; a topic with no results scores 0. Computed here rather than by
    ``evaluation.evaluate``, which leaves out topics without results."""
    judged = [(topic_id, docs) for topic_id, docs in rankings if any(g > 0 for g in qrels.get(topic_id, {}).values())]
    ndcg = [evaluation.ndcg_at_k(docs, qrels[topic_id], 20) for topic_id, docs in judged]
    recall = [evaluation.recall_at_k(docs, qrels[topic_id], 1000) for topic_id, docs in judged]
    return sum(ndcg) / len(ndcg), sum(recall) / len(recall)
