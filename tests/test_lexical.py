import importlib.util
import json
import logging
import math
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir import lexical
from xlir.errors import FormatError, ValidationError
from xlir.lexical import (
    SCORERS,
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
        doc_freq = np.diff(index.offsets)
        assert doc_freq[index.row("a")] == 2
        assert doc_freq[index.row("b")] == 1
        assert index.row("z") is None
        assert index.coll_freq[index.row("a")] == 3.0 and index.coll_freq.dtype == np.float64
        assert index.doc_lengths[index.ordinal("d1")] == 4.0
        assert (index.total_weight, index.avg_doc_length) == (8.0, 4.0)

    def test_empty(self):
        index = build_index([])
        assert index.num_docs == 0
        assert (index.total_weight, index.avg_doc_length) == (0.0, 0.0)
        assert index.terms == [] and index.docs.size == 0 and index.coll_freq.size == 0

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

    @pytest.mark.parametrize(
        "bags,message",
        [
            ([("d1", {"a": 1.0}), ("d\ud800", {"a": 2.0})], "document id 'd\\ud800' holds a lone surrogate"),
            ([("d1", {"a": 1.0}), ("d2", {"a": 1.0, "b\udfff": 2.0})], "term 'b\\udfff' holds a lone surrogate"),
        ],
        ids=["doc-id", "term"],
    )
    def test_lone_surrogate_id_or_term_rejected(self, bags, message):
        # docs.json and terms.json are UTF-8, which cannot hold one, so save_index could not write them.
        with pytest.raises(ValidationError, match=re.escape(message)):
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

    # save_index once wrote a weight in (0, 2**-150] as float32 0.0, which load_index refuses. Such
    # a weight is dropped like a zero; just above 2**-150 it rounds to the smallest float32, 2**-149.
    def test_weight_that_is_zero_as_float32_is_dropped(self, tmp_path):
        bags = [("d1", {"a": 1.0, "b": 2.0**-150}), ("d2", {"b": 1.0, "c": 1e-46}), ("d3", {"c": 2.0**-150})]
        without = [("d1", {"a": 1.0}), ("d2", {"b": 1.0}), ("d3", {})]
        save_index(build_index(bags), tmp_path / "idx")
        loaded, expected = load_index(tmp_path / "idx"), build_index(without)
        assert loaded.terms == expected.terms == ["a", "b"]
        for scorer in SCORERS:
            for rm3 in (False, True):
                results = search_lexical(expected, ["a", "b"], scorer, rm3)
                assert results and search_lexical(loaded, ["a", "b"], scorer, rm3) == results
        smallest = build_index([("d1", {"a": np.nextafter(2.0**-150, 1.0)})])
        save_index(smallest, tmp_path / "smallest")
        assert load_index(tmp_path / "smallest").weight("a", "d1") == 2.0**-149


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


class TestParams:
    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"k1": math.nan}, "k1"),
            ({"k1": math.inf}, "k1"),
            ({"k1": -0.5}, "k1"),
            ({"rm3_fb_docs": 2.5}, "rm3_fb_docs"),
            ({"rm3_fb_docs": True}, "rm3_fb_docs"),
            ({"rm3_fb_docs": 0}, "rm3_fb_docs"),
            ({"rm3_fb_terms": 3.0}, "rm3_fb_terms"),
            ({"rm3_fb_terms": "3"}, "rm3_fb_terms"),
        ],
    )
    def test_refused(self, changes, named):
        with pytest.raises(ValidationError, match=named):
            LexicalParams(**changes)

    def test_frozen(self):
        # DEFAULT_PARAMS is shared by every search given no parameter set, so no caller may change it.
        params = LexicalParams()
        with pytest.raises(FrozenInstanceError):
            params.k1 = 1.2
        assert params == LexicalParams()


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

    def test_one_rm3_search_is_one_search_lexical_span(self, monkeypatch):
        # RM3's first pass calls search_weighted directly: it once went through search_lexical,
        # which checked and counted the query again and recorded a second, nested span.
        tracing_path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up there
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        index = build_index([("d1", {"a": 2.0, "b": 1.0}), ("d2", {"a": 1.0, "c": 3.0})])
        with tracer.recording():
            results = lexical.search_lexical(index, ["a", "a", "c"], rm3=True)
        names = [span.name for span in tracer.spans]
        assert results and names == ["lexical.search_lexical", "lexical.rm3_expand"]
        assert tracer.spans[1].parent == 0

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


def exhaustive_ranking(index, query, scorer, params=None):
    """Score every document with the public per-document scorer and sort."""
    score_fn = {"bm25": bm25_score, "hmm": hmm_score}[scorer]
    scored = [(doc_id, score_fn(index, query, doc_id, params)) for doc_id in index.doc_ids]
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
        # search_weighted, which every search ends in, refuses it; RM3's first pass included.
        for rm3 in (False, True):
            with pytest.raises(ValidationError, match="empty query"):
                search_lexical(two_doc_index, [], rm3=rm3)
        with pytest.raises(ValidationError, match="empty query"):
            rm3_expand(two_doc_index, [])

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

        expanded = rm3_expand(index, query, params, scorer="bm25")
        manual = search_weighted(index, expanded, scorer="bm25", k=20, params=params)
        assert search_lexical(index, query, scorer="bm25", rm3=True, k=20, params=params) == manual


def doc_at_a_time_search(index, query_weights, scorer, k, params, allowed=None):
    """Reference for ``search_weighted``: the doc-at-a-time loop that term-at-a-time scoring replaced.

    Candidates are the documents in the postings of positively weighted query
    terms that the mask ``allowed`` admits; each is scored alone, adding its
    terms in query order, with the statistics of the whole index.
    """
    doc_freq = np.diff(index.offsets)

    def stats(term):
        t = index.row(term)
        return (0, 0.0) if t is None else (int(doc_freq[t]), float(index.coll_freq[t]))

    def bm25(doc_id):
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        avgdl = index.avg_doc_length
        length_norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
        score = 0.0
        for term, qw in query_weights.items():
            tf = index.weight(term, doc_id)
            if qw <= 0 or tf <= 0:
                continue
            df = stats(term)[0]
            idf = math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
            score += qw * idf * (tf / (tf + params.k1 * length_norm))
        return score

    def hmm(doc_id):
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        score = 0.0
        for term, qw in query_weights.items():
            if qw <= 0:
                continue
            p_doc = index.weight(term, doc_id) / dl if dl > 0 else 0.0
            p_coll = stats(term)[1] / index.total_weight if index.total_weight > 0 else 0.0
            p = params.lambda_ * p_doc + (1.0 - params.lambda_) * p_coll
            if p <= 0.0:
                return float("-inf")
            score += qw * math.log(p)
        return score

    score_fn = {"bm25": bm25, "hmm": hmm}[scorer]
    candidates = {
        index.doc_ids[i]
        for term, qw in query_weights.items()
        if qw > 0
        for i in index.postings(term)[0].tolist()
        if allowed is None or allowed[i]
    }
    scored = [(doc_id, score_fn(doc_id)) for doc_id in sorted(candidates)]
    scored = [(doc_id, score) for doc_id, score in scored if math.isfinite(score)]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored[:k]


def random_weighted_bags(rng, num_docs=300):
    """Bags under shuffled, unsorted doc ids, with integer, fractional and zero weights.

    Each document has 1-10 of the common terms ``c0``-``c19`` and, one time in
    ten, one of the rare terms ``r0``-``r9``, which a 3-way mask then leaves
    out of some parts.
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
        compared = mask_misses = 0
        for _ in range(12):
            bags = random_weighted_bags(rng)
            whole = build_index(bags)
            parts = [{doc_id for doc_id, _ in bags[i::3]} for i in range(3)]
            masks = [np.array([doc_id in part for doc_id in whole.doc_ids]) for part in parts]
            for _ in range(12):
                query = random_query_weights(rng)
                k = int(rng.choice([5, 50, 1000]))
                for allowed in [None, *masks]:
                    expected = doc_at_a_time_search(whole, query, scorer, k, params, allowed)
                    assert search_weighted(whole, query, scorer, k, params, allowed=allowed) == expected
                    compared += len(expected)
                    mask_misses += allowed is not None and any(
                        qw > 0 and whole.row(t) is not None and not allowed[whole.postings(t)[0]].any()
                        for t, qw in query.items()
                    )
        # Enough ranked documents to catch a last-bit change, and masks that admit no document
        # holding a query term the collection knows.
        assert compared > 2_000
        assert mask_misses > 20

    @pytest.mark.parametrize("lambda_", [0.5, 1.0])
    def test_hmm_scores_each_log_like_math_log(self, lambda_):
        # With one query term of weight 1 a score is one log, so a log that differs in the
        # last bit changes it. np.log can: with numpy 2.4.6 on x86-64 it differed from
        # math.log for 3,503 of 10^6 uniform draws in (0, 1). 4,000 documents give about
        # 20,000 scored logs per lambda.
        index = build_index(random_weighted_bags(np.random.default_rng(63), num_docs=4000))
        params = LexicalParams(lambda_=lambda_)
        for term in [f"c{i}" for i in range(20)]:
            expected = doc_at_a_time_search(index, {term: 1}, "hmm", 4000, params)
            assert search_weighted(index, {term: 1}, "hmm", 4000, params) == expected

    def test_cached_impacts_follow_parameters(self, tmp_path):
        # Each search must score with its own parameters, not with the impacts an
        # earlier search cached on the same index.
        save_index(build_index(random_weighted_bags(np.random.default_rng(64), num_docs=200)), tmp_path / "idx")
        index = load_index(tmp_path / "idx")
        query = {"c1": 1.0, "c2": 0.5, "r3": 2}
        sweeps = {
            "bm25": [LexicalParams(k1=0.9, b=0.4), LexicalParams(k1=1.2, b=0.75), LexicalParams(k1=0.9, b=0.4)],
            "hmm": [LexicalParams(lambda_=0.5), LexicalParams(lambda_=1.0), LexicalParams(lambda_=0.5)],
        }
        for scorer, sweep in sweeps.items():
            results = []
            for params in sweep:
                got = search_weighted(index, query, scorer, 1000, params)
                assert got == doc_at_a_time_search(index, query, scorer, 1000, params)
                assert got == search_weighted(load_index(tmp_path / "idx"), query, scorer, 1000, params)
                results.append(got)
            assert results[0] == results[2] != results[1]

    def test_threads_sweeping_parameters_share_one_index(self):
        # Threads that search one index under different parameters replace each other's
        # cached impacts; every search must still score with its own parameters.
        index = build_index(random_weighted_bags(np.random.default_rng(65), num_docs=100))
        query = {"c1": 1.0, "c4": 2}
        cases = [
            (scorer, params)
            for scorer in SCORERS
            for params in (LexicalParams(k1=0.5, b=0.2, lambda_=0.3), LexicalParams(k1=1.5, b=0.9, lambda_=0.9))
        ]
        expected = [doc_at_a_time_search(index, query, scorer, 1000, params) for scorer, params in cases]

        def wrong_cases(offset):
            wrong = []
            for i in range(60):
                case = (offset + i) % len(cases)
                scorer, params = cases[case]
                if search_weighted(index, query, scorer, 1000, params) != expected[case]:
                    wrong.append(case)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(wrong_cases, offset) for offset in range(4)]
                wrong = [case for future in futures for case in future.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    @pytest.mark.parametrize("scorer", ["bm25", "hmm"])
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_refused(self, scorer, weight):
        index = build_index(random_weighted_bags(np.random.default_rng(62), num_docs=40))
        with pytest.raises(ValidationError, match="'c2'"):
            search_weighted(index, {"c1": 1.0, "c2": weight}, scorer)

    @pytest.mark.parametrize("scorer", ["bm25", "hmm"])
    def test_only_non_positive_weights_give_nothing(self, scorer):
        index = build_index(random_weighted_bags(np.random.default_rng(62), num_docs=40))
        assert search_weighted(index, {"c1": 0.0, "c2": -1.0, "c3": -0.25}, scorer) == []
        mixed = {"c1": 0.0, "c2": -1.0, "c3": 0.25}
        expected = doc_at_a_time_search(index, mixed, scorer, 1000, LexicalParams())
        assert search_weighted(index, mixed, scorer) == expected != []


def term_major_bags(index):
    """Reference for ``doc_bag``: every document's bag gathered term by term from ``postings()``."""
    bags = {doc_id: {} for doc_id in index.doc_ids}
    for term in index.terms:
        docs, weights = index.postings(term)
        for i, w in zip(docs.tolist(), weights.tolist()):
            bags[index.doc_ids[i]][term] = w
    return bags


def dict_rm3(index, query_terms, params, scorer, allowed=None):
    """Reference for ``rm3_expand``: the dictionary relevance model over term-major bags that the
    document-major one replaced, summed term by term in each feedback document, in rank order."""
    bags = term_major_bags(index)
    feedback = search_lexical(index, query_terms, scorer=scorer, k=params.rm3_fb_docs, params=params, allowed=allowed)
    counts = Counter(query_terms)
    total = sum(counts.values())
    mle = {term: c / total for term, c in counts.items()}
    if not feedback:
        return mle
    peak = max(score for _, score in feedback)
    exps = [math.exp(score - peak) for _, score in feedback]
    exp_total = sum(exps)
    relevance = {}
    for (doc_id, _), e in zip(feedback, exps):
        dw = e / exp_total
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        for term, w in bags[doc_id].items():
            relevance[term] = relevance.get(term, 0.0) + dw * (w / dl)
    kept = dict(sorted(relevance.items(), key=lambda item: (-item[1], item[0]))[: params.rm3_fb_terms])
    alpha = params.rm3_alpha
    combined = {
        term: alpha * mle.get(term, 0.0) + (1.0 - alpha) * kept.get(term, 0.0) for term in sorted(set(mle) | set(kept))
    }
    norm = sum(combined.values())
    return {term: w / norm for term, w in combined.items() if w > 0.0}


def random_query_terms(rng):
    """1-6 query terms, common, rare or unseen, some repeated."""
    pool = [f"c{t}" for t in range(20)] + [f"r{t}" for t in range(10)] + ["unseen"]
    return [pool[int(i)] for i in rng.choice(len(pool), size=int(rng.integers(1, 7)))]


class TestDocumentMajor:
    """``doc_bag`` and ``rm3_expand`` read the document-major copy and equal term-major references with ``==``."""

    def test_doc_bag_equals_term_major_reference(self, tmp_path):
        bags = random_weighted_bags(np.random.default_rng(71), num_docs=200)
        bags += [("no-postings", {"c1": 0.0, "c2": 0.0}), ("empty", {})]
        index = build_index(bags)
        save_index(index, tmp_path / "idx")
        for current in (index, load_index(tmp_path / "idx")):
            reference = term_major_bags(current)
            assert reference["no-postings"] == reference["empty"] == {}
            for doc_id in current.doc_ids:
                assert list(current.doc_bag(doc_id).items()) == list(reference[doc_id].items())

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_rm3_equals_dict_reference(self, scorer):
        # 30 terms in all, so 50 feedback terms keep every term the feedback documents hold.
        # Fractional weights catch a sum in another order; half the indexes hold small integer
        # weights only, whose relevance sums tie, to catch ties broken other than by term.
        rng = np.random.default_rng(72)
        compared = 0
        for trial in range(6):
            bags = random_weighted_bags(rng, num_docs=150)
            if trial % 2:
                bags = [(doc_id, {term: float(rng.integers(1, 3)) for term in bag}) for doc_id, bag in bags]
            index = build_index(bags)
            parts = [{doc_id for doc_id, _ in bags[i::3]} for i in range(3)]
            masks = [np.array([doc_id in part for doc_id in index.doc_ids]) for part in parts]
            for _ in range(6):
                query = random_query_terms(rng)
                for fb_docs, fb_terms in ((10, 1), (10, 10), (10, 50), (60, 50)):
                    params = LexicalParams(rm3_fb_docs=fb_docs, rm3_fb_terms=fb_terms)
                    for allowed in [None, *masks]:
                        expected = dict_rm3(index, query, params, scorer, allowed)
                        got = rm3_expand(index, query, params, scorer, allowed)
                        assert list(got.items()) == list(expected.items())
                        second = search_weighted(index, expected, scorer, 1000, params, allowed=allowed)
                        assert search_lexical(index, query, scorer, True, 1000, params, allowed=allowed) == second
                        compared += len(expected)
        assert compared > 1_000

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_feedback_weight_underflowing_to_zero(self, scorer):
        # "a" repeated 3,000 times puts b1 thousands below a1 and a2 in the first pass, so b1's
        # softmax weight is exactly 0.0 and "z", which only b1 holds, sums to 0.0. It is ranked
        # and kept like any other term, and drops out of the expanded query with weight 0.
        bags = [("a1", {"a": 3.0, "x": 1.0}), ("a2", {"a": 2.0, "y": 1.5}), ("b1", {"b": 1.0, "z": 2.0})]
        bags += [(f"f{i:02d}", {f"f{i}": 1.0, "y": 0.5}) for i in range(40)]
        index = build_index(bags)
        query = ["a"] * 3000 + ["b"]
        feedback = search_lexical(index, query, scorer, k=10)
        assert [doc_id for doc_id, _ in feedback][:3] == ["a1", "a2", "b1"]
        assert math.exp(feedback[2][1] - feedback[0][1]) == 0.0
        for fb_terms in (1, 10, 100):
            params = LexicalParams(rm3_fb_terms=fb_terms)
            expected = dict_rm3(index, query, params, scorer)
            assert list(rm3_expand(index, query, params, scorer).items()) == list(expected.items())
            assert "z" not in expected and expected["b"] > 0.0

    def test_threads_building_the_copy_of_a_fresh_index(self):
        # Four threads search fresh indexes at once, so each copy is built while others read it.
        bags = random_weighted_bags(np.random.default_rng(73), num_docs=100)
        indexes = [build_index(bags) for _ in range(8)]
        cases = [(scorer, query) for scorer in SCORERS for query in (["c1", "c4", "c4"], ["c2", "r3", "c7"])]
        params = LexicalParams()
        expected = [list(dict_rm3(indexes[0], query, params, scorer).items()) for scorer, query in cases]
        expected_bags = term_major_bags(indexes[0])
        assert not any("_by_doc" in vars(index) for index in indexes)  # the references read no copy
        barrier = threading.Barrier(4)

        def wrong_cases(offset):
            wrong = []
            for index in indexes:
                barrier.wait(timeout=60)
                for i in range(len(cases)):
                    case = (offset + i) % len(cases)
                    scorer, query = cases[case]
                    if list(rm3_expand(index, query, params, scorer).items()) != expected[case]:
                        wrong.append(case)
                doc_id = index.doc_ids[offset]
                if list(index.doc_bag(doc_id).items()) != list(expected_bags[doc_id].items()):
                    wrong.append(doc_id)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(wrong_cases, offset) for offset in range(4)]
                wrong = [case for future in futures for case in future.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


STATS_JSON = '{"format": "xlir-lexical-index", "version": 2, "num_docs": %s, "num_terms": %s, "total_weight": 5.0}'


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

    def test_save_logs_the_bytes_of_the_arrays_written(self, tmp_path, caplog):
        index = build_index(random_weighted_bags(np.random.default_rng(34), num_docs=50))
        with caplog.at_level(logging.INFO, logger="xlir.lexical"):
            save_index(index, tmp_path / "idx")
        (event,) = [m for m in caplog.messages if m.startswith("event=lexical_index_save ")]
        written = [np.load(path) for path in (tmp_path / "idx").glob("*.npy")]
        size = sum(array.nbytes for array in written)
        assert len(written) == 3
        assert event == f"event=lexical_index_save bytes={size} postings={len(index.docs)}"

    @pytest.mark.parametrize("num_docs, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_postings_are_narrow_and_search_the_same_after_load(self, tmp_path, num_docs, dtype):
        # float32 weights in term order: the loaded index sums every statistic as the built one does.
        rng = np.random.default_rng(35)
        bags = [
            (doc_id, {term: float(np.float32(w)) for term, w in sorted(bag.items())})
            for doc_id, bag in random_weighted_bags(rng, num_docs=num_docs)
        ]
        index = build_index(bags)
        save_index(index, tmp_path / "idx")
        assert np.load(tmp_path / "idx" / "postings.npy").dtype == dtype
        loaded = load_index(tmp_path / "idx")
        assert loaded.docs.dtype == index.docs.dtype == dtype  # held as postings.npy stores them
        assert int(loaded.docs.max()) == num_docs - 1  # the last ordinal is in use
        for doc_id in index.doc_ids:
            assert list(loaded.doc_bag(doc_id).items()) == list(index.doc_bag(doc_id).items())
        query = [*index.terms[:3], index.terms[0]]
        for scorer, rm3 in (("bm25", False), ("hmm", False), ("hmm", True)):
            expected = search_lexical(index, query, scorer, rm3)
            assert expected and search_lexical(loaded, query, scorer, rm3) == expected

    def test_index_written_with_int32_postings_loads_and_searches_the_same(self, tmp_path):
        index = build_index(random_weighted_bags(np.random.default_rng(36), num_docs=300))
        save_index(index, tmp_path / "narrow")
        save_index(index, tmp_path / "wide")
        wide = tmp_path / "wide" / "postings.npy"
        np.save(wide, np.load(wide).astype(np.int32))
        narrow, wide = load_index(tmp_path / "narrow"), load_index(tmp_path / "wide")
        assert np.load(tmp_path / "narrow" / "postings.npy").dtype == np.uint16
        assert np.array_equal(narrow.docs, wide.docs) and wide.docs.dtype == np.uint16
        for query in (["c1", "c4", "c4"], ["c2", "r3", "c7"]):
            for scorer in SCORERS:
                for rm3 in (False, True):
                    expected = search_lexical(narrow, query, scorer, rm3)
                    assert expected and search_lexical(wide, query, scorer, rm3) == expected

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
            ("docs.json", '["d1", "d\\ud800"]', r"docs.json: document list entry 'd\\ud800' holds a lone surrogate"),
            ("terms.json", '["\\udfff", "b"]', r"terms.json: term list entry '\\udfff' holds a lone surrogate"),
            ("terms.json", '["a"]', "counts in stats.json"),
            # int() would read these as the index's 2 documents and 2 terms.
            ("stats.json", STATS_JSON % ("2.9", "2"), "stats.json: num_docs must be a JSON integer, got 2.9"),
            ("stats.json", STATS_JSON % ("true", "2"), "stats.json: num_docs must be a JSON integer, got True"),
            ("stats.json", STATS_JSON % ("2", '"2"'), "stats.json: num_terms must be a JSON integer, got '2'"),
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
