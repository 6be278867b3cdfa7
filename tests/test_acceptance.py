"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured values they report.
"""

import datetime as dt
import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from xlir.corpus import document_tokens, form_query, DEFAULT_TOKENIZER
from xlir.dense import (
    DenseIndexParams,
    build_dense_index,
    compress,
    decompress,
    search_dense,
    train_codebook,
    _bucketize,
)
from xlir.distill import distill_loss
from xlir.evaluation import ndcg_at_k, read_run, recall_at_k
from xlir.lexical import LexicalParams, bm25_score, build_index, hmm_score, search_lexical
from xlir.psq import TranslationTable, prune_table, translate_doc
from xlir.shards import DateFilter, merge_shard_results, plan_shards, select_shards
from xlir.synthetic import generate

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_MANIFEST = Path(__file__).resolve().parent / "golden" / "pipeline_manifest.json"


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {name}: PASS{suffix}")


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def random_embeddings(rng, num_passages, dim, max_tokens=10):
    return {
        f"p{i:04d}": unit_rows(
            rng.standard_normal((int(rng.integers(2, max_tokens + 1)), dim))
        ).astype(np.float32)
        for i in range(num_passages)
    }


def brute_force_maxsim(query, doc):
    total = 0.0
    for q in query:
        best = -np.inf
        for d in doc:
            dot = float(np.dot(np.asarray(q, dtype=np.float64), np.asarray(d, dtype=np.float64)))
            best = max(best, dot)
        total += best
    return total


def exhaustive_dense_ranking(index, query):
    scored = [
        (key, brute_force_maxsim(query, index.decompress_passage(i)))
        for i, key in enumerate(index.keys)
    ]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored


def test_criterion_1_dense_oracle_equivalence():
    started = time.perf_counter()
    master = np.random.default_rng(1001)
    corpora = 0
    for trial in range(20):
        num_passages = 1000 if trial == 0 else int(master.integers(50, 301))
        dim = int(master.choice([16, 32, 64]))
        k = int(master.integers(4, 25))
        rng = np.random.default_rng(2000 + trial)
        embeddings = random_embeddings(rng, num_passages, dim, max_tokens=6)
        params = DenseIndexParams(
            num_centroids=k, nprobe=k, candidate_cap=max(10_000, num_passages),
            kmeans_iters=6, seed=trial,
        )
        index = build_dense_index(embeddings, params)
        for q in range(2):
            query = unit_rows(rng.standard_normal((int(rng.integers(2, 6)), dim)))
            got = [key for key, _ in search_dense(index, query, params)]
            oracle = [key for key, _ in exhaustive_dense_ranking(index, query)]
            assert got == oracle, f"corpus {trial} query {q}: ranking diverges from oracle"
        corpora += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "dense oracle equivalence", f"{corpora} corpora, {elapsed:.1f}s")


def test_criterion_2_recall_monotonicity():
    rng = np.random.default_rng(1002)
    dim, k = 32, 64
    embeddings = random_embeddings(rng, 1000, dim, max_tokens=8)
    base = DenseIndexParams(num_centroids=k, kmeans_iters=6, seed=5, candidate_cap=2500)
    index = build_dense_index(embeddings, base)
    queries = [unit_rows(rng.standard_normal((4, dim))) for _ in range(5)]
    oracle_tops = [
        {key for key, _ in exhaustive_dense_ranking(index, query)[:10]} for query in queries
    ]
    recalls = []
    for nprobe in (1, 2, 4, 8, k):
        params = DenseIndexParams(num_centroids=k, nprobe=nprobe, candidate_cap=2500, seed=5)
        hits = 0
        for query, oracle_top in zip(queries, oracle_tops):
            got = {key for key, _ in search_dense(index, query, params)[:10]}
            hits += len(got & oracle_top)
        recalls.append(hits / (10 * len(queries)))
    assert recalls == sorted(recalls), f"recall not monotone in nprobe: {recalls}"
    assert recalls[-1] == 1.0
    detail = ", ".join(
        f"nprobe={n}: {r:.3f}" for n, r in zip((1, 2, 4, 8, k), recalls)
    )
    report(2, "recall monotone in nprobe", detail)


def test_criterion_3_compression_round_trip():
    rng = np.random.default_rng(1003)
    embeddings = random_embeddings(rng, 120, 16, max_tokens=8)
    params = DenseIndexParams(num_centroids=16, kmeans_iters=8, seed=9)
    codebook = train_codebook(embeddings, params)
    tokens = np.vstack([m.astype(np.float64) for m in embeddings.values()])
    centroids = codebook.centroids.astype(np.float64)
    assign = np.argmax(tokens @ centroids.T, axis=1)
    residuals = tokens - centroids[assign]
    codes = _bucketize(residuals, codebook.boundaries)
    bound = np.zeros(16)
    for d in range(16):
        for level in range(2**codebook.bits):
            members = residuals[codes[:, d] == level, d]
            if members.size:
                bound[d] = max(bound[d], np.abs(members - codebook.values[d, level]).max())
    errors = []
    # 1e-6 slack covers the float32 rounding of the decompressed output; the
    # bound itself is computed in float64.
    for key, matrix in embeddings.items():
        decoded = decompress(compress(matrix, codebook, key=key), codebook)
        err = np.abs(decoded.astype(np.float64) - matrix.astype(np.float64))
        assert (err <= bound + 1e-6).all(), "reconstruction error exceeds training bound"
        errors.append(err.mean())

    # Constructed fixed points: centroid plus reconstruction values re-encode
    # to the same codes and round-trip bit-exactly.
    single = train_codebook(embeddings, DenseIndexParams(num_centroids=1, seed=9))
    centroid = single.centroids[0].astype(np.float64)
    for level in range(2**single.bits):
        vec = (centroid + single.values[:, level]).astype(np.float32).reshape(1, -1)
        decoded = decompress(compress(vec, single), single)
        assert decoded.tobytes() == vec.tobytes(), "fixed-point vector did not round-trip exactly"
    report(3, "compression round-trip", f"mean per-dim error {np.mean(errors):.5f}")


def exhaustive_lexical_ranking(index, query, scorer, params=None):
    score_fn = {"bm25": bm25_score, "hmm": hmm_score}[scorer]
    scored = [(d, score_fn(index, query, d, params)) for d in index.doc_ids]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored


def test_criterion_4_lexical_scoring_oracles():
    # Worked closed forms.
    bm25_index = build_index([("d1", {"a": 2.0, "b": 1.0}), ("d2", {"c": 3.0})])
    expected_bm25 = math.log(2.0) * (2.0 / 2.9)
    assert abs(bm25_score(bm25_index, ["a"], "d1") - expected_bm25) < 1e-6
    hmm_index = build_index([("d1", {"a": 2.0, "b": 2.0}), ("d2", {"a": 1.0, "c": 3.0})])
    expected_hmm = math.log(0.4375 * 0.375)
    assert abs(hmm_score(hmm_index, ["a", "b"], "d1") - expected_hmm) < 1e-6

    # Search equals exhaustive per-document scoring on 100 random indexes.
    rng = np.random.default_rng(1004)
    for trial in range(100):
        num_docs = int(rng.integers(5, 201))
        bags = []
        for i in range(num_docs):
            terms = rng.choice(30, size=int(rng.integers(1, 9)), replace=False)
            bags.append(
                (f"d{i:03d}", {f"t{int(t)}": float(rng.integers(1, 6)) for t in terms})
            )
        index = build_index(bags)
        query = [f"t{int(t)}" for t in rng.choice(30, size=int(rng.integers(1, 5)), replace=True)]
        scorer = ("bm25", "hmm")[trial % 2]
        got = search_lexical(index, query, scorer=scorer, k=num_docs)
        oracle = exhaustive_lexical_ranking(index, query, scorer)
        assert got == oracle[: len(got)], f"trial {trial}: order diverges"
        returned = {doc_id for doc_id, _ in got}
        for doc_id, score in oracle[len(got):]:
            matched = any(index.weight(t, doc_id) > 0 for t in query)
            assert not matched or not math.isfinite(score)
    report(4, "lexical scoring oracles", "100 random indexes, both scorers")


def test_criterion_5_psq_correctness():
    rng = np.random.default_rng(1005)
    for trial in range(30):
        n_sources, n_targets = int(rng.integers(5, 51)), int(rng.integers(5, 51))
        rows = []
        for s in range(n_sources):
            k = int(rng.integers(1, min(6, n_targets + 1)))
            probs = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.7, 1.0))
            picks = rng.choice(n_targets, size=k, replace=False)
            rows.extend((f"s{s}", f"t{int(t)}", float(p)) for t, p in zip(picks, probs))
        table = TranslationTable.from_rows(rows)
        counts = {
            f"s{int(s)}": float(rng.integers(1, 10))
            for s in rng.choice(n_sources, size=min(20, n_sources), replace=False)
        }
        bag = translate_doc(counts, table)
        # Independent oracle: count vector times probability matrix.
        sources = sorted(table.entries)
        targets = sorted({t for row in table.entries.values() for t, _ in row})
        vec = np.array([counts.get(s, 0.0) for s in sources])
        mat = np.zeros((len(sources), len(targets)))
        for i, s in enumerate(sources):
            for t, p in table.entries[s]:
                mat[i, targets.index(t)] += p
        product = vec @ mat
        oracle = {t: product[j] for j, t in enumerate(targets) if product[j] > 0}
        assert set(bag) == set(oracle)
        for term in bag:
            assert abs(bag[term] - oracle[term]) < 1e-9

        pruned = prune_table(table, cum_mass=float(rng.uniform(0.5, 1.0)), max_alts=int(rng.integers(1, 5)))
        for source, kept in pruned.entries.items():
            full_order = [t for t, _ in table.entries[source]]
            assert [t for t, _ in kept] == full_order[: len(kept)], "pruning broke top-mass order"
            assert abs(sum(p for _, p in kept) - 1.0) < 1e-9, "pruned mass not renormalized"
    report(5, "psq translation and pruning", "30 random tables up to 50x50")


def test_criterion_6_shard_merge_equivalence():
    corpus = generate(seed=77, num_docs=500, num_topics=10)
    tables = {lang: TranslationTable.from_rows(rows) for lang, rows in corpus.tables.items()}
    bags = []
    for doc in corpus.docs:
        counts = Counter(document_tokens(doc))
        bags.append((doc.doc_id, translate_doc(counts, tables[doc.lang])))
    full = build_index(bags)

    plan = plan_shards(corpus.docs, window_months=3)
    by_shard: dict[int, list] = {}
    for doc_id, bag in bags:
        by_shard.setdefault(plan.assignment[doc_id], []).append((doc_id, bag))
    shard_indexes = {ordinal: build_index(group) for ordinal, group in by_shard.items()}

    params = LexicalParams()
    checked = 0
    for topic in corpus.topics:
        tokens = DEFAULT_TOKENIZER(form_query(topic, "TD"))
        tokens = [t for t in tokens if full.stats.doc_freq.get(t, 0) > 0]
        if not tokens:
            continue
        for scorer in ("bm25", "hmm"):
            expected = search_lexical(full, tokens, scorer=scorer, k=500, params=params)
            per_shard = [
                search_lexical(
                    shard_indexes[o], tokens, scorer=scorer, k=500, params=params,
                    stats=full.stats,
                )
                for o in sorted(shard_indexes)
            ]
            merged = merge_shard_results(per_shard, k=500)
            assert merged == expected, f"topic {topic.topic_id} {scorer}: sharded merge diverges"
            checked += 1

    # Date filter semantics from the worked examples: a 2021-03-23..2021-03-29
    # range hits exactly the Jan-Mar quarter; an open-ended 2020-09-21 start
    # hits every shard from Q3 2020 onward.
    def quarterly_plan(start_year, end_year):
        from xlir.corpus import Document

        docs = [
            Document("a", "t", "x", "eng", dt.date(start_year, 1, 1)),
            Document("b", "t", "x", "eng", dt.date(end_year, 12, 31)),
        ]
        return plan_shards(docs, window_months=3)

    plan_2021 = quarterly_plan(2021, 2021)
    assert select_shards(plan_2021, DateFilter(dt.date(2021, 3, 23), dt.date(2021, 3, 29))) == {0}
    plan_2020 = quarterly_plan(2020, 2020)
    assert select_shards(plan_2020, DateFilter(dt.date(2020, 9, 21), None)) == {2, 3}
    plan_long = quarterly_plan(2020, 2021)
    assert select_shards(plan_long, DateFilter(dt.date(2020, 9, 21), None)) == {2, 3, 4, 5, 6, 7}
    report(6, "shard-merge equivalence", f"{checked} topic/scorer pairs on 500 docs")


def test_criterion_7_metrics_cross_check():
    # Worked example.
    worked = ndcg_at_k(["d2", "d1"], {"d1": 3, "d2": 1}, k=20)
    assert abs(worked - 0.7098) < 1e-4

    rng = np.random.default_rng(1007)
    for _ in range(100):
        num_docs = int(rng.integers(10, 60))
        docs = [f"d{i}" for i in range(num_docs)]
        judged = rng.choice(docs, size=int(rng.integers(3, min(20, num_docs))), replace=False)
        qrels = {str(d): int(rng.integers(0, 4)) for d in judged}
        if not any(g > 0 for g in qrels.values()):
            qrels[str(judged[0])] = 1
        ranking = [str(d) for d in rng.permutation(docs)]

        dcg = sum(
            (2 ** qrels.get(doc_id, 0) - 1) / math.log2(i + 2)
            for i, doc_id in enumerate(ranking[:20])
        )
        idcg = sum(
            (2**g - 1) / math.log2(i + 2)
            for i, g in enumerate(sorted(qrels.values(), reverse=True)[:20])
        )
        assert abs(ndcg_at_k(ranking, qrels, 20) - dcg / idcg) < 1e-6

        relevant = {d for d, g in qrels.items() if g > 0}
        brute = len(relevant & set(ranking[:1000])) / len(relevant)
        assert abs(recall_at_k(ranking, qrels, 1000) - brute) < 1e-6
    report(7, "metrics cross-check", "100 random run/qrels pairs")


def test_criterion_8_distillation_math():
    assert distill_loss([3.0, 1.0, -2.0], [3.0, 1.0, -2.0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(distill_loss([1.0, 0.0], [0.0, 0.0]) - 0.1109) < 1e-4
    rng = np.random.default_rng(1008)
    for _ in range(20):
        teacher = rng.standard_normal(6).tolist()
        student = rng.standard_normal(6).tolist()
        base = distill_loss(teacher, student)
        assert base >= -1e-12
        shifted = distill_loss(
            [t + 13.5 for t in teacher], [s - 4.25 for s in student]
        )
        assert shifted == pytest.approx(base, abs=1e-9)
    report(8, "distillation loss", "worked value, zero case, shift invariance")


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    timings = []
    for name in ("one", "two"):
        started = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "run_pipeline.py"),
                "--output", str(root / name),
                "--seed", "7",
            ],
            capture_output=True,
            text=True,
        )
        timings.append(time.perf_counter() - started)
        assert proc.returncode == 0, f"pipeline run {name} failed:\n{proc.stderr[-2000:]}"
    return root / "one", root / "two", timings


def test_criterion_9_pipeline_determinism_and_formats(pipeline_runs):
    one, two, timings = pipeline_runs
    manifest_one = json.loads((one / "manifest.json").read_text())
    manifest_two = json.loads((two / "manifest.json").read_text())
    assert manifest_one == manifest_two, "pipeline outputs differ between identical runs"
    for rel in manifest_one:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), f"{rel} differs"

    run_files = sorted((one / "runs").glob("*.run"))
    assert len(run_files) >= 8
    for run_file in run_files:
        entries = read_run(run_file)  # validates ranks, score ordering, field count
        assert entries
        topics = {entry.topic_id for entry in entries}
        assert topics <= {f"{i}" for i in range(201, 211)}

    assert max(timings) < 60.0, f"pipeline too slow: {timings}"

    golden = json.loads(GOLDEN_MANIFEST.read_text())
    assert manifest_one == golden, (
        "pipeline outputs diverge from the frozen golden manifest "
        "(regenerate goldens only for an intentional behavior change)"
    )
    report(
        9,
        "pipeline determinism and formats",
        f"{len(manifest_one)} files, runs {timings[0]:.1f}s/{timings[1]:.1f}s",
    )
