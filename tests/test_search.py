import datetime as dt
import logging
import math
import re
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from xlir import dense, lexical
from xlir.corpus import DEFAULT_TOKENIZER, document_tokens, form_query, parse_passage_key
from xlir.errors import FormatError, ValidationError
from xlir.psq import translate_doc
from xlir.search import open_index
from xlir.shards import DateFilter, ShardPlan, plan_shards, select_shards
from xlir.synthetic import generate

from tolerance import assert_ranking_within, maxsim_tolerance


@pytest.fixture(scope="module")
def lexical_dir(tmp_path_factory):
    """One language's PSQ bags as one index, and a plan dating every language's documents."""
    root = tmp_path_factory.mktemp("search")
    corpus = generate(seed=7, num_docs=240, num_topics=8)
    table = corpus.tables["fas"]
    bags = [(doc.doc_id, translate_doc(Counter(document_tokens(doc)), table)) for doc in corpus.docs if doc.lang == "fas"]
    lexical.save_index(lexical.build_index(bags), root / "whole")
    return corpus.topics, root / "whole", plan_shards(corpus.docs, window_months=3)


def _window_filters(plan):
    """One filter per plan window, admitting that window alone."""
    return [DateFilter(start, end - dt.timedelta(days=1)) for start, end in plan.windows]


def _per_document_ranking(index, terms, scorer, allowed):
    """Every admitted document holding a query term, scored alone by ``bm25_score``/``hmm_score``."""
    score_fn = {"bm25": lexical.bm25_score, "hmm": lexical.hmm_score}[scorer]
    held = set(terms)
    scored = [
        (doc_id, score_fn(index, terms, doc_id))
        for i, doc_id in enumerate(index.doc_ids)
        if allowed[i] and held & set(index.doc_bag(doc_id))
    ]
    return sorted(((d, s) for d, s in scored if s != float("-inf")), key=lambda entry: (-entry[1], entry[0]))


def _relevance_model(index, terms, feedback, params):
    """RM3's expanded query, re-derived from its feedback ranking: softmax document weights over
    the document models, the top ``rm3_fb_terms`` terms, interpolation with the query at ``rm3_alpha``."""
    counts = Counter(terms)
    mle = {term: c / sum(counts.values()) for term, c in counts.items()}
    if not feedback:
        return mle
    peak = max(score for _, score in feedback)
    exps = [math.exp(score - peak) for _, score in feedback]
    relevance = {}
    for (doc_id, _), e in zip(feedback, exps):
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        for term, w in index.doc_bag(doc_id).items():
            relevance[term] = relevance.get(term, 0.0) + e / sum(exps) * (w / dl)
    kept = dict(sorted(relevance.items(), key=lambda item: (-item[1], item[0]))[: params.rm3_fb_terms])
    alpha = params.rm3_alpha
    combined = {t: alpha * mle.get(t, 0.0) + (1.0 - alpha) * kept.get(t, 0.0) for t in sorted(set(mle) | set(kept))}
    return {t: w / sum(combined.values()) for t, w in combined.items() if w > 0.0}


@pytest.mark.parametrize("scorer,rm3", [("bm25", False), ("bm25", True), ("hmm", False), ("hmm", True)])
def test_dated_lexical_search_equals_search_over_admitted_documents(lexical_dir, scorer, rm3):
    """A date filter is a mask: the dated ranking is the per-document scores, over the whole
    index, of the admitted documents alone; with RM3, the masked search of the query that a
    relevance model expands from the top ``rm3_fb_docs`` of that ranking."""
    topics, path, plan = lexical_dir
    searcher = open_index(path, plan)
    whole = searcher.index
    params = lexical.LexicalParams()
    compared = restricted = 0
    for topic in topics:
        terms = [t for t in DEFAULT_TOKENIZER(form_query(topic, "TD")) if whole.row(t) is not None]
        own = topic.dates
        for date_filter in ([] if own.empty else [own]) + _window_filters(plan):
            selected = select_shards(plan, date_filter)
            allowed = np.array([plan.assignment[doc_id] in selected for doc_id in whole.doc_ids])
            ranking = _per_document_ranking(whole, terms, scorer, allowed) if terms else []
            if rm3 and terms:
                expanded = _relevance_model(whole, terms, ranking[: params.rm3_fb_docs], params)
            for k in (5, 1000):  # a cut that bites, and one that keeps every match
                if rm3 and terms:
                    expected = lexical.search_weighted(whole, expanded, scorer, k, allowed=allowed)
                else:
                    expected = ranking[:k]
                assert searcher.search(terms, date_filter, k, scorer=scorer, rm3=rm3) == expected
                compared += len(expected)
                restricted += allowed.sum() < whole.num_docs and bool(expected)
    assert compared > 500
    assert restricted >= len(topics)


def test_plan_missing_an_indexed_document_is_refused(lexical_dir):
    _, path, plan = lexical_dir
    first = open_index(path).index.doc_ids[0]
    partial = ShardPlan(plan.windows, {d: w for d, w in plan.assignment.items() if d != first}, plan.window_months)
    with pytest.raises(ValidationError, match=f"indexed document '{first}' missing from shard plan"):
        open_index(path, partial)


@pytest.fixture(scope="module")
def dense_dir(tmp_path_factory):
    """A small dense index and the embeddings it was built from."""
    rng = np.random.default_rng(5)
    embeddings = {}
    for doc in range(12):
        for passage in range(2):
            matrix = rng.standard_normal((4, 8))
            embeddings[f"d{doc:02d}#{passage}"] = (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)).astype(
                np.float32
            )
    params = dense.DenseIndexParams(num_centroids=8, kmeans_iters=3, candidate_cap=10)
    path = tmp_path_factory.mktemp("dense") / "dense"
    dense.save_dense_index(dense.build_dense_index(embeddings, params), path)
    return path, embeddings


def test_dense_searcher_matches_engine(dense_dir):
    """Every result, at every cut and override, is MaxP over the engine's passages."""
    path, embeddings = dense_dir
    searcher = open_index(path)
    assert searcher.engine == "dense"
    assert searcher.search(embeddings["d03#1"][:3], DateFilter(), 5)[0][0] == "d03"
    settings = [{}, {"nprobe": 1}, {"candidate_cap": 3}, {"nprobe": 8, "candidate_cap": 30}]
    for key, given in zip(["d03#1", "d07#0", "d10#1", "d00#0"], settings):
        query = embeddings[key][:3]
        passages = dense.search_dense(searcher.index, query, replace(searcher.index.params, **given))
        expected = dense.maxp_aggregate((parse_passage_key(k)[0], score) for k, score in passages)
        for k in (1, 5, 1000):
            assert searcher.search(query, DateFilter(), k, **given) == expected[:k]


def test_malformed_passage_key_is_refused_at_open(tmp_path):
    vectors = np.random.default_rng(12).standard_normal((6, 3, 8))
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    embeddings = {f"d{i}#0": v.astype(np.float32) for i, v in enumerate(vectors)}
    embeddings["d6#\u0663"] = embeddings.pop("d5#0")
    index = dense.build_dense_index(embeddings, dense.DenseIndexParams(num_centroids=4))
    dense.save_dense_index(index, tmp_path / "idx")
    with pytest.raises(FormatError, match="malformed passage key 'd6#\u0663'"):
        open_index(tmp_path / "idx")


def test_dated_dense_search_equals_exhaustive_search_over_admitted_passages(dense_dir, caplog):
    """With every centroid probed and no candidate cut, a dated search scores exactly the admitted
    passages, each within float32 rounding of ``maxsim`` over its decompressed vectors, ties by key."""
    path, embeddings = dense_dir
    windows = [(dt.date(2020, month, 1), dt.date(2020, month + 3, 1)) for month in (1, 4, 7)]
    plan = ShardPlan(windows, {f"d{doc:02d}": doc % 3 for doc in range(12)}, 3)
    searcher = open_index(path, plan)
    index = searcher.index
    exhaustive = {"nprobe": index.codebook.num_centroids, "candidate_cap": len(index)}
    params = replace(index.params, **exhaustive)
    filters = [*_window_filters(plan), DateFilter(windows[1][0], None), DateFilter(None, dt.date(2019, 1, 1))]
    for date_filter in filters:
        selected = select_shards(plan, date_filter)
        allowed = np.array([plan.assignment[parse_passage_key(key)[0]] in selected for key in index.keys])
        for key in ("d03#1", "d08#0"):
            query = embeddings[key][:3].astype(np.float64)
            expected = sorted(
                ((k, dense.maxsim(query, index.decompress_passage(i))) for i, k in enumerate(index.keys) if allowed[i]),
                key=lambda entry: (-entry[1], entry[0]),
            )
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="xlir"):
                got = dense.search_dense(index, query, params, allowed=allowed)
            assert_ranking_within(got, expected, maxsim_tolerance(index, query))
            candidates = [re.search(r"candidates=(\d+)", m).group(1) for m in caplog.messages]
            assert candidates == [str(allowed.sum())]
            docs = dense.maxp_aggregate((parse_passage_key(k)[0], score) for k, score in got)
            assert searcher.search(query, date_filter, 5, **exhaustive) == docs[:5]


@pytest.mark.parametrize("k", [0, -5])
def test_lexical_search_rejects_k_below_one(lexical_dir, k):
    topics, path, _ = lexical_dir
    searcher = open_index(path)
    # Known terms, and terms absent from the collection, which once returned [] for any k.
    for terms in (DEFAULT_TOKENIZER(form_query(topics[0], "TD")), ["zzzqqq"]):
        for rm3 in (False, True):
            with pytest.raises(ValidationError, match="k must be >= 1"):
                searcher.search(terms, DateFilter(), k, rm3=rm3)


@pytest.mark.parametrize("k", [0, -5])
def test_dense_search_rejects_k_below_one(dense_dir, k):
    path, embeddings = dense_dir
    with pytest.raises(ValidationError, match="k must be >= 1"):
        open_index(path).search(embeddings["d03#1"][:3], DateFilter(), k)


@pytest.mark.parametrize(
    "override,message",
    [({"nprobe": 0}, "nprobe must be >= 1, got 0"), ({"candidate_cap": -3}, "candidate_cap must be >= 1, got -3")],
)
def test_dense_search_refuses_a_bad_override(dense_dir, override, message):
    # The override replaces a field of the index's parameter set, and a replaced set is checked when made.
    path, embeddings = dense_dir
    with pytest.raises(ValidationError, match=re.escape(message)):
        open_index(path).search(embeddings["d03#1"][:3], DateFilter(), 5, **override)


@pytest.mark.parametrize("engine", ["lexical", "dense"])
@pytest.mark.parametrize("change", ["shorter", "integer"])
def test_allowed_must_be_a_boolean_mask_over_the_index(lexical_dir, dense_dir, engine, change):
    if engine == "lexical":
        index = open_index(lexical_dir[1]).index
        size, search = index.num_docs, lambda allowed: lexical.search_lexical(index, ["a"], allowed=allowed)
    else:
        path, embeddings = dense_dir
        index = open_index(path).index
        size, search = len(index), lambda allowed: dense.search_dense(index, embeddings["d03#1"], allowed=allowed)
    allowed = np.ones(size - 1, dtype=bool) if change == "shorter" else np.ones(size, dtype=np.int64)
    with pytest.raises(ValidationError, match="boolean mask"):
        search(allowed)


def test_open_index_rejects_non_index(tmp_path):
    with pytest.raises(FormatError, match="not an index directory"):
        open_index(tmp_path)


LEXICAL_FILES = ["stats.json", "docs.json", "terms.json", "offsets.npy", "postings.npy", "weights.npy"]
DENSE_FILES = [
    "meta.json",
    "centroids.npy",
    "bucket_boundaries.npy",
    "bucket_values.npy",
    "keys.txt",
    "token_counts.npy",
    "centroid_ids.npy",
    "codes.npy",
]


@pytest.mark.parametrize(
    "engine,name", [("lexical", name) for name in LEXICAL_FILES] + [("dense", name) for name in DENSE_FILES]
)
def test_missing_index_file_is_a_format_error(lexical_dir, tmp_path, engine, name):
    """Each loader names a deleted file in a ``FormatError``, never a raw ``FileNotFoundError``."""
    _, path, _ = lexical_dir
    index_dir = tmp_path / "index"
    if engine == "lexical":
        shutil.copytree(path, index_dir)
        load, files = lexical.load_index, LEXICAL_FILES
    else:
        vectors = np.random.default_rng(11).standard_normal((12, 3, 8))
        vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
        embeddings = {f"d{i:02d}#0": v.astype(np.float32) for i, v in enumerate(vectors)}
        index = dense.build_dense_index(embeddings, dense.DenseIndexParams(num_centroids=4))
        dense.save_dense_index(index, index_dir)
        load, files = dense.load_dense_index, DENSE_FILES
    assert sorted(path.name for path in index_dir.iterdir()) == sorted(files)
    load(index_dir)
    (index_dir / name).unlink()
    with pytest.raises(FormatError, match=name.replace(".", r"\.")):
        load(index_dir)
