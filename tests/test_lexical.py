import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.errors import ValidationError
from xlir.lexical import (
    LexicalParams,
    bm25_score,
    build_index,
    hmm_score,
    load_index,
    rm3_expand,
    save_index,
    search_lexical,
)


@pytest.fixture
def two_doc_index():
    return build_index([("d1", {"a": 2.0, "b": 1.0}), ("d2", {"c": 3.0})])


@pytest.fixture
def hmm_index():
    return build_index([("d1", {"a": 2.0, "b": 2.0}), ("d2", {"a": 1.0, "c": 3.0})])


class TestBuildIndex:
    def test_counting(self):
        index = build_index([("d1", {"a": 2, "b": 2}), ("d2", {"a": 1, "c": 3})])
        assert index.stats.doc_freq["a"] == 2
        assert index.stats.doc_freq["b"] == 1
        assert index.doc_lengths["d1"] == 4.0

    def test_empty(self):
        index = build_index([])
        assert index.stats.num_docs == 0
        assert index.postings == {}

    def test_real_valued_weights(self):
        index = build_index([("d1", {"x": 2.2, "y": 0.8})])
        assert index.doc_lengths["d1"] == pytest.approx(3.0)

    def test_duplicate_doc_id(self):
        with pytest.raises(ValidationError, match="d1"):
            build_index([("d1", {"a": 1}), ("d1", {"b": 1})])

    def test_postings_sorted_by_doc_id(self):
        index = build_index([("d2", {"a": 1}), ("d1", {"a": 1}), ("d3", {"a": 1})])
        assert [doc_id for doc_id, _ in index.postings["a"]] == ["d1", "d2", "d3"]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            build_index([("d1", {"a": -1.0})])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValidationError, match="not finite"):
            build_index([("d1", {"a": 1.0}), ("d2", {"a": weight})])


class TestBM25:
    def test_worked_example(self, two_doc_index):
        # N=2, d1={a:2,b:1} (dl=3), d2={c:3} (dl=3), query "a", k1=0.9, b=0.4:
        # idf = ln 2, tf part = 2 / 2.9.
        expected = math.log(2.0) * 2.0 / 2.9
        score = bm25_score(two_doc_index, ["a"], "d1")
        assert score == pytest.approx(expected, abs=1e-9)
        assert score == pytest.approx(0.4780, abs=1e-4)

    def test_absent_term_scores_zero(self, two_doc_index):
        assert bm25_score(two_doc_index, ["zzz"], "d1") == 0.0

    def test_b_zero_removes_length_dependence(self):
        params = LexicalParams(b=0.0)
        index = build_index([("short", {"a": 1.0}), ("long", {"a": 1.0, "f": 99.0})])
        assert bm25_score(index, ["a"], "short", params) == pytest.approx(
            bm25_score(index, ["a"], "long", params)
        )

    def test_repeated_query_terms_count_twice(self, two_doc_index):
        single = bm25_score(two_doc_index, ["a"], "d1")
        double = bm25_score(two_doc_index, ["a", "a"], "d1")
        assert double == pytest.approx(2 * single)

    def test_unknown_doc(self, two_doc_index):
        with pytest.raises(ValidationError):
            bm25_score(two_doc_index, ["a"], "dX")

    @given(
        tf_low=st.floats(min_value=0.1, max_value=50),
        tf_delta=st.floats(min_value=0.01, max_value=50),
        filler=st.floats(min_value=110, max_value=300),
        k1=st.floats(min_value=0.0, max_value=3.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotonic_in_tf(self, tf_low, tf_delta, filler, k1, b):
        # Same document length, same df, higher tf for the query term.
        params = LexicalParams(k1=k1, b=b)
        tf_high = tf_low + tf_delta
        low = build_index([("d", {"q": tf_low, "pad": filler - tf_low}), ("o", {"x": 1.0})])
        high = build_index([("d", {"q": tf_high, "pad": filler - tf_high}), ("o", {"x": 1.0})])
        score_low = bm25_score(low, ["q"], "d", params)
        score_high = bm25_score(high, ["q"], "d", params)
        assert score_high >= score_low - 1e-12 * max(1.0, abs(score_low))


class TestHMM:
    def test_worked_example(self, hmm_index):
        # Collection total 8; query "a b" against d1 at lambda 0.5:
        # (0.5*0.5 + 0.5*0.375) * (0.5*0.5 + 0.5*0.25) = 0.4375 * 0.375.
        expected = math.log(0.4375 * 0.375)
        assert hmm_score(hmm_index, ["a", "b"], "d1") == pytest.approx(expected, abs=1e-9)
        assert math.log(0.1640625) == pytest.approx(expected)

    def test_lambda_one_is_pure_document_model(self, hmm_index):
        params = LexicalParams(lambda_=1.0)
        assert hmm_score(hmm_index, ["a"], "d2", params) == pytest.approx(math.log(1.0 / 4.0))

    def test_lambda_one_missing_term_is_neg_inf(self, hmm_index):
        params = LexicalParams(lambda_=1.0)
        assert hmm_score(hmm_index, ["b"], "d2", params) == float("-inf")

    def test_zero_collection_frequency(self, hmm_index):
        assert hmm_score(hmm_index, ["nope"], "d1") == float("-inf")

    def test_finite_and_probability_like(self, hmm_index):
        for doc_id in ("d1", "d2"):
            score = hmm_score(hmm_index, ["a", "b", "c"], doc_id)
            assert math.isfinite(score)
            assert 0.0 < math.exp(score) <= 1.0

    def test_lambda_validation(self, hmm_index):
        with pytest.raises(ValidationError):
            hmm_score(hmm_index, ["a"], "d1", LexicalParams(lambda_=0.0))


class TestRM3:
    def test_single_feedback_doc(self):
        # One feedback document makes the relevance model its language model.
        index = build_index([("d1", {"a": 2.0, "b": 1.0})])
        weights = rm3_expand(index, ["a"])
        assert weights["a"] == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-9)
        assert weights["b"] == pytest.approx(0.5 * (1 / 3), abs=1e-9)

    def test_alpha_one_keeps_original_query(self):
        index = build_index([("d1", {"a": 2.0, "b": 1.0})])
        weights = rm3_expand(index, ["a"], LexicalParams(rm3_alpha=1.0))
        assert weights == {"a": pytest.approx(1.0)}

    def test_fb_terms_one(self):
        index = build_index([("d1", {"a": 2.0, "b": 1.0})])
        weights = rm3_expand(index, ["a"], LexicalParams(rm3_fb_terms=1))
        assert set(weights) == {"a"}

    def test_no_feedback_returns_query_model(self):
        index = build_index([("d1", {"x": 1.0})])
        weights = rm3_expand(index, ["a", "a", "b"])
        assert weights == pytest.approx({"a": 2 / 3, "b": 1 / 3})

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        bags = [
            (f"d{i}", {f"t{int(t)}": float(rng.integers(1, 5)) for t in rng.choice(30, 8, replace=False)})
            for i in range(40)
        ]
        index = build_index(bags)
        for scorer in ("bm25", "hmm"):
            weights = rm3_expand(index, ["t1", "t2"], scorer=scorer)
            assert all(w >= 0 for w in weights.values())
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


def exhaustive_ranking(index, query, scorer, params=None, stats=None):
    """Score every document with the public per-document scorer and sort."""
    score_fn = {"bm25": bm25_score, "hmm": hmm_score}[scorer]
    scored = [
        (doc_id, score_fn(index, query, doc_id, params, stats))
        for doc_id in index.doc_lengths
    ]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored


def random_index(rng, max_docs=200, vocab=30):
    num_docs = int(rng.integers(2, max_docs + 1))
    bags = []
    for i in range(num_docs):
        size = int(rng.integers(1, 10))
        terms = rng.choice(vocab, size=size, replace=False)
        bags.append((f"d{i:03d}", {f"t{int(t)}": float(rng.integers(1, 6)) for t in terms}))
    return build_index(bags)


class TestSearch:
    def test_only_matching_docs_returned(self, two_doc_index):
        results = search_lexical(two_doc_index, ["a"], k=10)
        assert [doc_id for doc_id, _ in results] == ["d1"]

    def test_k_larger_than_collection(self, hmm_index):
        results = search_lexical(hmm_index, ["a"], scorer="hmm", k=100)
        assert len(results) == 2

    def test_empty_query_rejected(self, two_doc_index):
        with pytest.raises(ValidationError):
            search_lexical(two_doc_index, [])

    def test_k_validation(self, two_doc_index):
        with pytest.raises(ValidationError):
            search_lexical(two_doc_index, ["a"], k=0)

    def test_tie_break_by_doc_id(self):
        index = build_index([("db", {"a": 1.0}), ("da", {"a": 1.0})])
        results = search_lexical(index, ["a"], k=10)
        assert [doc_id for doc_id, _ in results] == ["da", "db"]
        assert results[0][1] == results[1][1]

    @pytest.mark.parametrize("scorer", ["bm25", "hmm"])
    def test_matches_exhaustive_oracle(self, scorer):
        rng = np.random.default_rng(23)
        for _ in range(25):
            index = random_index(rng)
            query = [f"t{int(t)}" for t in rng.choice(30, size=int(rng.integers(1, 4)), replace=True)]
            got = search_lexical(index, query, scorer=scorer, k=index.num_docs)
            oracle = exhaustive_ranking(index, query, scorer)
            assert got == oracle[: len(got)]
            # Everything the search omitted either matches no query term or
            # scored -inf (a collection-OOV query term zeroes every document).
            returned = {doc_id for doc_id, _ in got}
            score_fn = {"bm25": bm25_score, "hmm": hmm_score}[scorer]
            for doc_id in index.doc_lengths:
                if doc_id not in returned:
                    unmatched = all(index.weight(t, doc_id) == 0.0 for t in query)
                    assert unmatched or score_fn(index, query, doc_id) == float("-inf")

    def test_rm3_second_pass_matches_manual_expansion(self):
        rng = np.random.default_rng(29)
        index = random_index(rng, max_docs=60)
        params = LexicalParams()
        query = ["t1", "t4"]
        from xlir.lexical import search_weighted

        expanded = rm3_expand(index, query, params, scorer="bm25")
        manual = search_weighted(index, expanded, scorer="bm25", k=20, params=params)
        assert search_lexical(index, query, scorer="bm25", rm3=True, k=20, params=params) == manual


class TestPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        rng = np.random.default_rng(31)
        index = random_index(rng, max_docs=50)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.num_docs == index.num_docs
        # Weights are float32-quantized on save; requantizing is a no-op.
        save_index(loaded, tmp_path / "idx2")
        reloaded = load_index(tmp_path / "idx2")
        query = ["t1", "t2", "t3"]
        assert search_lexical(loaded, query, k=10) == search_lexical(reloaded, query, k=10)

    def test_save_is_deterministic(self, tmp_path):
        index = build_index([("d1", {"a": 1.5}), ("d2", {"b": 2.5, "a": 0.25})])
        save_index(index, tmp_path / "one")
        save_index(index, tmp_path / "two")
        for name in ("stats.json", "postings.jsonl", "docs.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "1e999", "-1.0", '"x"', '"0.5"', "null"])
    def test_load_rejects_weight_that_is_not_a_finite_non_negative_number(self, tmp_path, weight):
        from xlir.errors import FormatError

        save_index(build_index([("d1", {"a": 1.5}), ("d2", {"b": 2.5})]), tmp_path / "idx")
        postings = tmp_path / "idx" / "postings.jsonl"
        lines = postings.read_text().splitlines()
        assert lines[1] == '{"term": "b", "postings": [["d2", 2.5]]}'
        lines[1] = lines[1].replace("2.5", weight)
        postings.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="postings.jsonl:2"):
            load_index(tmp_path / "idx")

    def test_load_rejects_alien_directory(self, tmp_path):
        from xlir.errors import FormatError

        with pytest.raises(FormatError):
            load_index(tmp_path)
