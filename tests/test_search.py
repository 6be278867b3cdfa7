import json
import shutil
from collections import Counter

import numpy as np
import pytest

from xlir import dense, lexical
from xlir.corpus import DEFAULT_TOKENIZER, document_tokens, form_query, parse_passage_key
from xlir.errors import FormatError, ValidationError
from xlir.psq import TranslationTable, translate_doc
from xlir.search import open_index, save_sharded
from xlir.shards import DateFilter, plan_shards
from xlir.synthetic import generate


@pytest.fixture(scope="module")
def lexical_dirs(tmp_path_factory):
    """One language's PSQ bags as a single index and as date shards."""
    root = tmp_path_factory.mktemp("search")
    corpus = generate(seed=7, num_docs=240, num_topics=8)
    docs = [doc for doc in corpus.docs if doc.lang == "fas"]
    table = TranslationTable.from_rows(corpus.tables["fas"])
    bags = [(doc.doc_id, translate_doc(Counter(document_tokens(doc)), table)) for doc in docs]
    lexical.save_index(lexical.build_index(bags), root / "whole")
    plan = plan_shards(docs, window_months=3)
    save_sharded(root / "sharded", plan, "lexical", bags, lexical.build_index)
    return corpus.topics, root


@pytest.mark.parametrize("scorer,rm3", [("bm25", False), ("bm25", True), ("hmm", False), ("hmm", True)])
def test_sharded_lexical_equals_unsharded(lexical_dirs, scorer, rm3):
    topics, root = lexical_dirs
    whole, sharded = open_index(root / "whole"), open_index(root / "sharded")
    assert (whole.kind, sharded.kind) == ("lexical", "sharded-lexical")
    assert len(sharded.indexes) > 1
    compared = 0
    for topic in topics:
        terms = DEFAULT_TOKENIZER(form_query(topic, "TD"))
        expected = whole.search(terms, DateFilter(), 1000, scorer=scorer, rm3=rm3)
        assert sharded.search(terms, DateFilter(), 1000, scorer=scorer, rm3=rm3) == expected
        compared += bool(expected)
    assert compared >= len(topics) // 2


def test_date_filter_restricts_shards(lexical_dirs):
    topics, root = lexical_dirs
    sharded = open_index(root / "sharded")
    first_window = DateFilter(start=sharded.plan.windows[0][0], end=sharded.plan.windows[0][0])
    allowed = set(sharded.indexes[0].doc_ids) if 0 in sharded.indexes else set()
    for topic in topics:
        terms = DEFAULT_TOKENIZER(form_query(topic, "TD"))
        for rm3 in (False, True):
            ranked = sharded.search(terms, first_window, 1000, rm3=rm3)
            assert {doc_id for doc_id, _ in ranked} <= allowed


def test_unsharded_dense_matches_engine(tmp_path):
    rng = np.random.default_rng(5)
    embeddings = {}
    for doc in range(12):
        for passage in range(2):
            matrix = rng.standard_normal((4, 8))
            embeddings[f"d{doc:02d}#{passage}"] = (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)).astype(
                np.float32
            )
    params = dense.DenseIndexParams(num_centroids=8, kmeans_iters=3, candidate_cap=10)
    dense.save_dense_index(dense.build_dense_index(embeddings, params), tmp_path / "dense")
    searcher = open_index(tmp_path / "dense")
    assert searcher.kind == "dense"
    query = embeddings["d03#1"][:3]
    passages = dense.search_dense(searcher.indexes[0], query)
    expected = dense.maxp_aggregate((parse_passage_key(key)[0], score) for key, score in passages)
    assert searcher.search(query, DateFilter(), 5) == expected[:5]
    assert searcher.search(query, DateFilter(), 5)[0][0] == "d03"


def test_save_sharded_rejects_unplanned_documents(lexical_dirs, tmp_path):
    topics, root = lexical_dirs
    plan = open_index(root / "sharded").plan
    with pytest.raises(ValidationError, match="missing from shard plan"):
        save_sharded(tmp_path / "out", plan, "lexical", [("nowhere-1", {"t": 1.0})], lexical.build_index)
    assert not (tmp_path / "out").exists()


def test_open_index_rejects_non_index(tmp_path):
    with pytest.raises(FormatError, match="not an index directory"):
        open_index(tmp_path)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda meta: meta.update(engine="sparse"), "unknown engine"),
        (lambda meta: meta.update(shards=[0, 99]), "outside the plan"),
        (lambda meta: meta.update(shards=3), "malformed"),
        (lambda meta: meta.pop("engine"), "engine"),
        (lambda meta: meta.update(version=2), "version"),
    ],
    ids=["unknown-engine", "ordinal-outside-plan", "shards-not-a-list", "no-engine", "wrong-version"],
)
def test_open_index_rejects_bad_sharded_meta(lexical_dirs, tmp_path, change, message):
    _, root = lexical_dirs
    shutil.copytree(root / "sharded", tmp_path / "sharded")
    meta_path = tmp_path / "sharded" / "meta.json"
    meta = json.loads(meta_path.read_text())
    change(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=message):
        open_index(tmp_path / "sharded")


LEXICAL_FILES = ["stats.json", "docs.json", "terms.json", "offsets.npy", "postings.npy", "weights.npy"]
DENSE_FILES = [
    "meta.json",
    "centroids.npy",
    "bucket_boundaries.npy",
    "bucket_values.npy",
    "keys.txt",
    "token_counts.npy",
    "centroid_ids.npy",
    "packed_codes.npy",
]


@pytest.mark.parametrize(
    "engine,name", [("lexical", name) for name in LEXICAL_FILES] + [("dense", name) for name in DENSE_FILES]
)
def test_missing_index_file_is_a_format_error(lexical_dirs, tmp_path, engine, name):
    """Each loader names a deleted file in a ``FormatError``, never a raw ``FileNotFoundError``."""
    _, root = lexical_dirs
    index_dir = tmp_path / "index"
    if engine == "lexical":
        shutil.copytree(root / "whole", index_dir)
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
