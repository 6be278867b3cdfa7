import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.errors import FormatError, ValidationError
from xlir.lexical import (
    CollectionStats,
    LexicalParams,
    bm25_score,
    build_index,
    hmm_score,
    load_index,
    rm3_expand,
    save_index,
    search_lexical,
    search_weighted,
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
        assert index.doc_lengths[index.ordinal("d1")] == 4.0

    def test_empty(self):
        index = build_index([])
        assert index.stats.num_docs == 0
        assert index.terms == [] and index.docs.size == 0

    def test_real_valued_weights(self):
        index = build_index([("d1", {"x": 2.2, "y": 0.8})])
        assert index.doc_lengths[index.ordinal("d1")] == pytest.approx(3.0)

    def test_duplicate_doc_id(self):
        with pytest.raises(ValidationError, match="d1"):
            build_index([("d1", {"a": 1}), ("d1", {"b": 1})])

    @pytest.mark.parametrize(
        "bags,named",
        [
            ([("d1", {"a": 1.0}), (5, {"a": 2.0})], "5"),
            ([(None, {"a": 1.0})], "None"),
            ([("d1", {"a": 1.0}), ("d2", {"a": 1.0, 7: 2.0})], "7"),
            ([("d1", {("a",): 1.0})], r"\('a',\)"),
        ],
        ids=["int-doc-id", "none-doc-id", "int-term", "tuple-term"],
    )
    def test_non_string_id_or_term_rejected(self, bags, named):
        with pytest.raises(ValidationError, match=f"{named} is not a string"):
            build_index(bags)

    def test_postings_sorted_by_doc_id(self):
        index = build_index([("d2", {"a": 1}), ("d1", {"a": 1}), ("d3", {"a": 1})])
        assert [index.doc_ids[i] for i in index.postings("a")[0]] == ["d1", "d2", "d3"]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            build_index([("d1", {"a": -1.0})])

    # 1e39 is finite as a float64 but save_index's float32 cast would write it as Infinity.
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 1e39, 2.0**128 - 2.0**103])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(ValidationError, match="not finite"):
            index = build_index([("d1", {"a": 1.0}), ("d2", {"a": weight})])
            save_index(index, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_largest_float32_weight_round_trips(self, tmp_path):
        largest = float(np.finfo(np.float32).max)
        save_index(build_index([("d1", {"a": largest}), ("d2", {"a": 1.0})]), tmp_path / "idx")
        assert load_index(tmp_path / "idx").weight("a", "d1") == largest


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
        weights = rm3_expand([index], ["a"])
        assert weights["a"] == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-9)
        assert weights["b"] == pytest.approx(0.5 * (1 / 3), abs=1e-9)

    def test_alpha_one_keeps_original_query(self):
        index = build_index([("d1", {"a": 2.0, "b": 1.0})])
        weights = rm3_expand([index], ["a"], LexicalParams(rm3_alpha=1.0))
        assert weights == {"a": pytest.approx(1.0)}

    def test_fb_terms_one(self):
        index = build_index([("d1", {"a": 2.0, "b": 1.0})])
        weights = rm3_expand([index], ["a"], LexicalParams(rm3_fb_terms=1))
        assert set(weights) == {"a"}

    def test_no_feedback_returns_query_model(self):
        index = build_index([("d1", {"x": 1.0})])
        weights = rm3_expand([index], ["a", "a", "b"])
        assert weights == pytest.approx({"a": 2 / 3, "b": 1 / 3})

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        bags = [
            (f"d{i}", {f"t{int(t)}": float(rng.integers(1, 5)) for t in rng.choice(30, 8, replace=False)})
            for i in range(40)
        ]
        index = build_index(bags)
        for scorer in ("bm25", "hmm"):
            weights = rm3_expand([index], ["t1", "t2"], scorer=scorer)
            assert all(w >= 0 for w in weights.values())
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


def exhaustive_ranking(index, query, scorer, params=None, stats=None):
    """Score every document with the public per-document scorer and sort."""
    score_fn = {"bm25": bm25_score, "hmm": hmm_score}[scorer]
    scored = [
        (doc_id, score_fn(index, query, doc_id, params, stats))
        for doc_id in index.doc_ids
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
            for doc_id in index.doc_ids:
                if doc_id not in returned:
                    unmatched = all(index.weight(t, doc_id) == 0.0 for t in query)
                    assert unmatched or score_fn(index, query, doc_id) == float("-inf")

    def test_rm3_second_pass_matches_manual_expansion(self):
        rng = np.random.default_rng(29)
        index = random_index(rng, max_docs=60)
        params = LexicalParams()
        query = ["t1", "t4"]
        from xlir.lexical import search_weighted

        expanded = rm3_expand([index], query, params, scorer="bm25")
        manual = search_weighted(index, expanded, scorer="bm25", k=20, params=params)
        assert search_lexical(index, query, scorer="bm25", rm3=True, k=20, params=params) == manual


def doc_at_a_time_search(index, query_weights, scorer, k, params, stats):
    """Reference for ``search_weighted``: the doc-at-a-time loop that term-at-a-time scoring replaced.

    Candidates are the documents in the postings of positively weighted query
    terms; each is scored alone, adding its terms in query order.
    """

    def bm25(doc_id):
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        avgdl = stats.avg_doc_length
        length_norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
        score = 0.0
        for term, qw in query_weights.items():
            tf = index.weight(term, doc_id)
            if qw <= 0 or tf <= 0:
                continue
            df = stats.doc_freq.get(term, 0)
            idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
            score += qw * idf * (tf / (tf + params.k1 * length_norm))
        return score

    def hmm(doc_id):
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        score = 0.0
        for term, qw in query_weights.items():
            if qw <= 0:
                continue
            p_doc = index.weight(term, doc_id) / dl if dl > 0 else 0.0
            p_coll = stats.coll_freq.get(term, 0.0) / stats.total_weight if stats.total_weight > 0 else 0.0
            p = params.lambda_ * p_doc + (1.0 - params.lambda_) * p_coll
            if p <= 0.0:
                return float("-inf")
            score += qw * math.log(p)
        return score

    score_fn = {"bm25": bm25, "hmm": hmm}[scorer]
    candidates = {
        index.doc_ids[i] for term, qw in query_weights.items() if qw > 0 for i in index.postings(term)[0].tolist()
    }
    scored = [(doc_id, score_fn(doc_id)) for doc_id in sorted(candidates)]
    scored = [(doc_id, score) for doc_id, score in scored if math.isfinite(score)]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored[:k]


def random_weighted_bags(rng, num_docs=300):
    """Bags under shuffled, unsorted doc ids, with integer, fractional and zero weights.

    Each document has 1-10 of the common terms ``c0``-``c19`` and, one time in
    ten, one of the rare terms ``r0``-``r9``, which a 3-way split then leaves
    out of some shards.
    """
    bags = []
    for i in rng.permutation(num_docs):
        terms = [f"c{t}" for t in rng.choice(20, size=int(rng.integers(1, 11)), replace=False)]
        if rng.random() < 0.1:
            terms.append(f"r{rng.integers(10)}")
        weights = rng.uniform(0.01, 6.0, size=len(terms))
        integral = rng.random(len(terms)) < 0.3
        weights[integral] = rng.integers(0, 4, size=int(integral.sum()))
        bags.append((f"{rng.integers(10**6):06d}-{i}", {term: float(w) for term, w in zip(terms, weights)}))
    return bags


def random_query_weights(rng):
    """Fractional, integer, zero and negative weights, sometimes on rare or unseen terms."""
    terms = [f"c{t}" for t in rng.choice(20, size=int(rng.integers(1, 6)), replace=False)]
    if rng.random() < 0.4:
        terms.append(f"r{rng.integers(10)}")
    if rng.random() < 0.1:
        terms.append("unseen")
    choices = [lambda: float(rng.uniform(0.01, 3.0)), lambda: int(rng.integers(1, 4)), lambda: 0.0, lambda: -0.5]
    return {term: choices[int(rng.choice(4, p=[0.6, 0.2, 0.1, 0.1]))]() for term in terms}


class TestTermAtATime:
    """``search_weighted`` equals the doc-at-a-time reference with ``==``, scores and order alike."""

    @pytest.mark.parametrize(
        "scorer, lambda_", [("bm25", 0.5), ("hmm", 0.5), ("hmm", 1.0)], ids=["bm25", "hmm-0.5", "hmm-1.0"]
    )
    def test_equals_doc_at_a_time_reference(self, scorer, lambda_):
        rng = np.random.default_rng(61)
        params = LexicalParams(lambda_=lambda_)
        compared = shard_misses = 0
        for _ in range(12):
            bags = random_weighted_bags(rng)
            whole = build_index(bags)
            shards = [build_index(bags[i::3]) for i in range(3)]
            merged = CollectionStats.merge(shard.stats for shard in shards)
            for _ in range(12):
                query = random_query_weights(rng)
                k = int(rng.choice([5, 50, 1000]))
                for index, stats in [(whole, whole.stats), *((shard, merged) for shard in shards)]:
                    expected = doc_at_a_time_search(index, query, scorer, k, params, stats)
                    assert search_weighted(index, query, scorer, k, params, stats) == expected
                    compared += len(expected)
                    shard_misses += any(
                        qw > 0 and t not in index.terms and merged.doc_freq.get(t, 0) > 0 for t, qw in query.items()
                    )
        # Enough ranked documents to catch a last-bit change, and shards that lack a query term
        # the merged statistics know.
        assert compared > 2_000
        assert shard_misses > 20

    @pytest.mark.parametrize("lambda_", [0.5, 1.0])
    def test_hmm_scores_each_log_like_math_log(self, lambda_):
        # With one query term of weight 1 a score is one log, so a log that differs in the
        # last bit changes it. np.log can: with numpy 2.4.6 on x86-64 it differed from
        # math.log for 3,503 of 10^6 uniform draws in (0, 1). 4,000 documents give about
        # 20,000 scored logs per lambda.
        index = build_index(random_weighted_bags(np.random.default_rng(63), num_docs=4000))
        params = LexicalParams(lambda_=lambda_)
        for term in [f"c{i}" for i in range(20)]:
            expected = doc_at_a_time_search(index, {term: 1}, "hmm", 4000, params, index.stats)
            assert search_weighted(index, {term: 1}, "hmm", 4000, params) == expected

    @pytest.mark.parametrize("scorer", ["bm25", "hmm"])
    def test_only_non_positive_weights_give_nothing(self, scorer):
        index = build_index(random_weighted_bags(np.random.default_rng(62), num_docs=40))
        assert search_weighted(index, {"c1": 0.0, "c2": -1.0, "c3": -0.25}, scorer) == []
        mixed = {"c1": 0.0, "c2": -1.0, "c3": 0.25}
        expected = doc_at_a_time_search(index, mixed, scorer, 1000, LexicalParams(), index.stats)
        assert search_weighted(index, mixed, scorer) == expected != []


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

    def test_round_trip_keeps_the_arrays(self, tmp_path):
        index = build_index(random_weighted_bags(np.random.default_rng(33), num_docs=120))
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.doc_ids == index.doc_ids and loaded.terms == index.terms
        assert np.array_equal(loaded.offsets, index.offsets) and np.array_equal(loaded.docs, index.docs)
        assert loaded.weights.dtype == np.float64
        assert np.array_equal(loaded.weights, index.weights.astype(np.float32).astype(np.float64))

    def test_save_is_deterministic(self, tmp_path):
        index = build_index([("d1", {"a": 1.5}), ("d2", {"b": 2.5, "a": 0.25})])
        save_index(index, tmp_path / "one")
        save_index(index, tmp_path / "two")
        names = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "two").iterdir())
        assert names == ["docs.json", "offsets.npy", "postings.npy", "stats.json", "terms.json", "weights.npy"]
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    # Each way a stored weight can be wrong: not a number, infinite, negative, zero (a posting of
    # nothing), float64 (1e39 needs it), boolean, text, or an object array, which np.load refuses
    # to unpickle.
    @pytest.mark.parametrize(
        "weights",
        [
            np.array([1.5, np.nan], dtype=np.float32),
            np.array([1.5, np.inf], dtype=np.float32),
            np.array([1.5, -np.inf], dtype=np.float32),
            np.array([1.5, -1.0], dtype=np.float32),
            np.array([1.5, 0.0], dtype=np.float32),
            np.array([1.5, 1e39]),
            np.array([1.5, 2.5]),
            np.array([True, True]),
            np.array(["1.5", "x"]),
            np.array(["1.5", "0.5"]),
            np.array([1.5, None], dtype=object),
        ],
        ids=["NaN", "Infinity", "-Infinity", "-1.0", "zero", "float64-1e39", "float64", "bool", "text",
             "numeric-text", "object"],
    )
    def test_load_rejects_weight_that_is_not_a_finite_non_negative_number(self, tmp_path, weights):
        save_index(build_index([("d1", {"a": 1.5}), ("d2", {"b": 2.5})]), tmp_path / "idx")
        path = tmp_path / "idx" / "weights.npy"
        assert np.load(path).tolist() == [1.5, 2.5]
        np.save(path, weights)
        with pytest.raises(FormatError, match="weights.npy"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize(
        "name, content, match",
        [
            ("postings.npy", np.array([0, 1, 2], dtype=np.int32), "postings.npy: document ordinals"),
            ("postings.npy", np.array([0, -1, 1], dtype=np.int32), "postings.npy: document ordinals"),
            ("postings.npy", np.array([0, 0, 0], dtype=np.int32), "two postings for one document"),
            ("offsets.npy", np.array([0, 4, 3]), "offsets.npy"),
            ("offsets.npy", np.array([0, 3, 3]), "offsets.npy"),
            ("offsets.npy", np.array([1, 2, 3]), "offsets.npy"),
            ("offsets.npy", np.array([0, 1, 2]), "offsets.npy"),
            ("offsets.npy", np.array([0, 1, 2, 3]), "offsets.npy"),
            ("offsets.npy", np.array([0, 4, 3], dtype=np.uint64), "offsets.npy"),
            ("terms.json", '["a", 7]', "terms.json"),
            ("terms.json", '["a", "a"]', "duplicate term 'a'"),
            ("terms.json", '{"terms": ["a", "b"]}', "terms.json"),
            ("docs.json", '["d1", 5]', "docs.json"),
            ("docs.json", '["d1"]', "counts in stats.json"),
            ("terms.json", '["a"]', "counts in stats.json"),
        ],
    )
    def test_load_rejects_corrupt_index(self, tmp_path, name, content, match):
        save_index(build_index([("d1", {"a": 1.5, "b": 1.0}), ("d2", {"b": 2.5})]), tmp_path / "idx")
        path = tmp_path / "idx" / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            np.save(path, content)
        with pytest.raises(FormatError, match=match):
            load_index(tmp_path / "idx")

    def test_load_rejects_version_1_directory(self, tmp_path):
        # The JSON-lines layout that version 1 wrote; it must be rebuilt from its bags.
        (tmp_path / "stats.json").write_text(
            json.dumps({"format": "xlir-lexical-index", "version": 1, "num_docs": 1, "num_terms": 1,
                        "total_weight": 1.5})
        )
        (tmp_path / "docs.json").write_text('["d1"]\n')
        (tmp_path / "postings.jsonl").write_text('{"term": "a", "postings": [["d1", 1.5]]}\n')
        with pytest.raises(FormatError, match="v1, expected v2"):
            load_index(tmp_path)

    def test_load_rejects_alien_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_index(tmp_path)
