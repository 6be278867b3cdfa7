import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.corpus import Document
from xlir.errors import FormatError, ValidationError
from xlir.lexical import build_index, search_lexical
from xlir.shards import (
    DateFilter,
    ShardPlan,
    fuse_multilingual,
    merge_shard_results,
    plan_shards,
    select_shards,
)


def dated_doc(doc_id, date):
    return Document(doc_id, "t", "body", "eng", date)


class TestPlanShards:
    def test_year_gives_four_quarterly_windows(self):
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2020, 12, 31))]
        plan = plan_shards(docs)
        assert plan.windows == [
            (dt.date(2020, 1, 1), dt.date(2020, 4, 1)),
            (dt.date(2020, 4, 1), dt.date(2020, 7, 1)),
            (dt.date(2020, 7, 1), dt.date(2020, 10, 1)),
            (dt.date(2020, 10, 1), dt.date(2021, 1, 1)),
        ]

    def test_single_month_single_window(self):
        docs = [dated_doc("a", dt.date(2021, 5, 3)), dated_doc("b", dt.date(2021, 5, 28))]
        plan = plan_shards(docs)
        assert plan.num_shards == 1

    def test_march_doc_lands_in_first_quarter(self):
        docs = [dated_doc("a", dt.date(2021, 1, 1)), dated_doc("b", dt.date(2021, 3, 25)),
                dated_doc("c", dt.date(2021, 12, 1))]
        plan = plan_shards(docs)
        assert plan.assignment["b"] == 0  # 2021-03-25 < 2021-04-01

    def test_undated_goes_to_final_window(self):
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2020, 8, 1)),
                Document("u", "t", "x", "eng", None)]
        plan = plan_shards(docs)
        assert plan.assignment["u"] == plan.num_shards - 1

    def test_no_dated_docs_rejected(self):
        with pytest.raises(ValidationError):
            plan_shards([Document("u", "t", "x", "eng", None)])

    def test_round_trip(self, tmp_path):
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2020, 9, 9))]
        plan = plan_shards(docs)
        plan.save(tmp_path / "plan.json")
        loaded = ShardPlan.load(tmp_path / "plan.json")
        assert loaded.windows == plan.windows
        assert loaded.assignment == plan.assignment

    @pytest.mark.parametrize("shard", [-1, 3, 99])
    def test_load_rejects_assignment_out_of_range(self, tmp_path, shard):
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2020, 9, 9))]
        plan = plan_shards(docs)
        plan.assignment["b"] = shard
        plan.save(tmp_path / "plan.json")
        with pytest.raises(FormatError, match="outside"):
            ShardPlan.load(tmp_path / "plan.json")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("assignment", 1.7, "window of document 'b' must be a JSON integer, got 1.7"),
            ("assignment", True, "window of document 'b' must be a JSON integer, got True"),
            ("assignment", "1", "window of document 'b' must be a JSON integer, got '1'"),
            ("window_months", 0, "window_months must be >= 1, got 0"),
            ("window_months", -2, "window_months must be >= 1, got -2"),
            ("window_months", 2.5, "window_months must be a JSON integer, got 2.5"),
            ("window_months", True, "window_months must be a JSON integer, got True"),
        ],
    )
    def test_load_rejects_non_integer_or_out_of_range_fields(self, tmp_path, field, value, match):
        # int() would load 1.7, true and "1" all as window 1, silently re-windowing document b.
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2020, 9, 9))]
        plan = plan_shards(docs)
        if field == "assignment":
            plan.assignment["b"] = value
        else:
            plan.window_months = value
        plan.save(tmp_path / "plan.json")
        with pytest.raises(FormatError, match=f"plan.json: .*{re.escape(match)}"):
            ShardPlan.load(tmp_path / "plan.json")

    @pytest.mark.parametrize(
        "windows",
        [
            [(dt.date(2020, 1, 1), dt.date(2020, 4, 1)), (dt.date(2020, 5, 1), dt.date(2020, 8, 1))],
            [(dt.date(2020, 4, 1), dt.date(2020, 7, 1)), (dt.date(2020, 1, 1), dt.date(2020, 4, 1))],
            [(dt.date(2020, 4, 1), dt.date(2020, 4, 1))],
        ],
        ids=["gap", "decreasing", "empty-window"],
    )
    def test_load_rejects_broken_windows(self, tmp_path, windows):
        ShardPlan(windows=windows, assignment={"a": 0}, window_months=3).save(tmp_path / "plan.json")
        with pytest.raises(FormatError, match="contiguous"):
            ShardPlan.load(tmp_path / "plan.json")

    @pytest.mark.parametrize("text", ['{"format": "xlir-shard-plan"', "[1, 2]", '{"format": "xlir-shard-plan", '
                                      '"version": 1, "windows": [["2020-13-01", "2021-01-01"]], '
                                      '"assignment": {}, "window_months": 3}'])
    def test_load_rejects_malformed_file(self, tmp_path, text):
        (tmp_path / "plan.json").write_text(text)
        with pytest.raises(FormatError, match="plan.json"):
            ShardPlan.load(tmp_path / "plan.json")

    @given(st.lists(st.dates(min_value=dt.date(2015, 1, 1), max_value=dt.date(2023, 12, 31)),
                    min_size=1, max_size=30),
           st.integers(min_value=1, max_value=6))
    def test_windows_partition_the_span(self, dates, months):
        docs = [dated_doc(f"d{i}", date) for i, date in enumerate(dates)]
        plan = plan_shards(docs, window_months=months)
        for prev, cur in zip(plan.windows, plan.windows[1:]):
            assert prev[1] == cur[0]
        for doc in docs:
            ordinal = plan.assignment[doc.doc_id]
            start, end = plan.windows[ordinal]
            assert start <= doc.date < end


class TestSelectShards:
    def quarterly_plan(self, year):
        docs = [dated_doc("a", dt.date(year, 1, 1)), dated_doc("b", dt.date(year, 12, 31))]
        return plan_shards(docs)

    def test_range_filter_selects_single_quarter(self):
        # Topic 203: 2021-03-23 .. 2021-03-29 intersects only Jan-Mar.
        plan = self.quarterly_plan(2021)
        selected = select_shards(plan, DateFilter(dt.date(2021, 3, 23), dt.date(2021, 3, 29)))
        assert selected == {0}

    def test_open_start_selects_q3_onward(self):
        # Topic 207: start 2020-09-21, no end.
        plan = self.quarterly_plan(2020)
        selected = select_shards(plan, DateFilter(dt.date(2020, 9, 21), None))
        assert selected == {2, 3}

    def test_open_start_extends_into_later_years(self):
        docs = [dated_doc("a", dt.date(2020, 1, 1)), dated_doc("b", dt.date(2021, 6, 30))]
        plan = plan_shards(docs)
        assert plan.num_shards == 6
        selected = select_shards(plan, DateFilter(dt.date(2020, 9, 21), None))
        assert selected == {2, 3, 4, 5}

    def test_empty_filter_selects_all(self):
        plan = self.quarterly_plan(2020)
        assert select_shards(plan, DateFilter()) == {0, 1, 2, 3}

    def test_full_span_filter_selects_all(self):
        plan = self.quarterly_plan(2020)
        full = DateFilter(dt.date(2020, 1, 1), dt.date(2020, 12, 31))
        assert select_shards(plan, full) == {0, 1, 2, 3}

    def test_filter_order_validated(self):
        with pytest.raises(ValidationError):
            DateFilter(dt.date(2021, 1, 2), dt.date(2021, 1, 1))


class TestMergeShardResults:
    def test_concatenate_and_sort(self):
        merged = merge_shard_results([[("d1", 0.9)], [("d2", 0.8)]], k=10)
        assert merged == [("d1", 0.9), ("d2", 0.8)]

    def test_duplicate_keeps_max(self):
        merged = merge_shard_results([[("d1", 0.7)], [("d1", 0.9)]], k=10)
        assert merged == [("d1", 0.9)]

    def test_truncates_to_k(self):
        merged = merge_shard_results([[("a", 3.0), ("b", 2.0)], [("c", 1.0)]], k=2)
        assert merged == [("a", 3.0), ("b", 2.0)]

    def test_matches_unsharded_search_with_global_stats(self):
        # Searches of one index masked to disjoint parts, which share the whole
        # collection's statistics, merge into the unmasked run exactly.
        rng = np.random.default_rng(41)
        bags = []
        for i in range(80):
            terms = rng.choice(25, size=int(rng.integers(2, 8)), replace=False)
            bags.append((f"d{i:03d}", {f"t{int(t)}": float(rng.integers(1, 5)) for t in terms}))
        full = build_index(bags)
        parts = [{doc_id for doc_id, _ in bags[i::3]} for i in range(3)]
        masks = [np.array([doc_id in part for doc_id in full.doc_ids]) for part in parts]
        query = ["t1", "t2", "t3"]
        for scorer in ("bm25", "hmm"):
            expected = search_lexical(full, query, scorer=scorer, k=80)
            per_shard = [search_lexical(full, query, scorer=scorer, k=80, allowed=mask) for mask in masks]
            assert all(per_shard) and merge_shard_results(per_shard, k=80) == expected


class TestFuseMultilingual:
    def test_sorted_by_raw_score(self):
        runs = [[("f1", -2.0)], [("r1", -1.5)], [("z1", -2.5)]]
        fused = fuse_multilingual(runs, k=10)
        assert [doc_id for doc_id, _ in fused] == ["r1", "f1", "z1"]

    def test_empty_language_run(self):
        fused = fuse_multilingual([[("f1", 1.0)], [], [("z1", 0.5)]], k=10)
        assert [doc_id for doc_id, _ in fused] == ["f1", "z1"]

    def test_single_run_identity(self):
        run = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert fuse_multilingual([run], k=10) == run

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="d1"):
            fuse_multilingual([[("d1", 1.0)], [("d1", 0.5)]], k=10)

    def test_preserves_within_language_order(self):
        rng = np.random.default_rng(43)
        runs = []
        for lang in "abc":
            scores = sorted(rng.standard_normal(15), reverse=True)
            runs.append([(f"{lang}{i:02d}", float(s)) for i, s in enumerate(scores)])
        fused = fuse_multilingual(runs, k=100)
        for run in runs:
            positions = {doc_id: i for i, (doc_id, _) in enumerate(fused)}
            order = [positions[doc_id] for doc_id, _ in run]
            assert order == sorted(order)

    def test_min_max_normalization(self):
        runs = [[("a", 10.0), ("b", 0.0)], [("c", -1.0), ("d", -3.0)]]
        fused = fuse_multilingual(runs, k=10, normalize=True)
        assert [doc_id for doc_id, _ in fused] == ["a", "c", "b", "d"]
        assert fused[0][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_equals_key_sort_reference(self, normalize):
        # Unsorted runs whose scores repeat across runs, 0.0 and -0.0 among them; compared by repr,
        # so a sign of zero that changed would show.
        rng = np.random.default_rng(47)
        values = [2.5, 1.0, 0.5, 0.0, -0.0, -1.0, -3.25]
        compared = 0
        for _ in range(60):
            ids = [f"d{i:03d}" for i in rng.permutation(int(rng.integers(1, 40)))]
            cuts = sorted(rng.integers(0, len(ids) + 1, size=2).tolist())
            runs = [
                [(doc_id, values[int(rng.integers(len(values)))]) for doc_id in part]
                for part in (ids[: cuts[0]], ids[cuts[0] : cuts[1]], ids[cuts[1] :])
            ]
            for k in (1, 5, len(ids) + 10):
                expected = key_sort_fusion(runs, k, normalize)
                got = fuse_multilingual(runs, k=k, normalize=normalize)
                assert repr(got) == repr(expected)
                compared += len(expected)
        assert compared > 500

    def test_signed_zeros_come_back_as_given(self):
        runs = [[("b", 0.0), ("a", -0.0)], [("d", -0.0), ("c", 0.0)], [("e", 1.0)]]
        fused = fuse_multilingual(runs, k=10)
        assert repr(fused) == repr(key_sort_fusion(runs, 10))
        assert repr(fused) == "[('e', 1.0), ('a', -0.0), ('b', 0.0), ('c', 0.0), ('d', -0.0)]"

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "runs",
        [
            [[("a", 1.0), ("b", 2.0)], [("c", 1.0), ("a", 0.1), ("b", 0.5)]],
            [[("x", 1.0), ("x", 0.5)], [("y", 1.0)]],
            [[], [("p", 1.0)], [("q", 2.0), ("r", 1.0)], [("p", 0.0), ("r", 3.0)]],
        ],
        ids=["across-runs", "within-a-run", "after-an-empty-run"],
    )
    def test_duplicate_message_names_first_repeat(self, runs, normalize):
        # Walked backwards, the pools of the first and third cases would name another document.
        with pytest.raises(ValidationError) as expected:
            key_sort_fusion(runs, 10, normalize)
        with pytest.raises(ValidationError) as got:
            fuse_multilingual(runs, k=10, normalize=normalize)
        assert str(got.value) == str(expected.value)


def key_sort_fusion(runs, k, normalize=False):
    """Reference for ``fuse_multilingual``: the pool walk and key-function sort it replaced."""
    seen = set()
    pooled = []
    for run in runs:
        if not run:
            continue
        entries = list(run)
        if normalize:
            low, high = min(s for _, s in run), max(s for _, s in run)
            entries = [(d, 0.5 if high == low else (s - low) / (high - low)) for d, s in run]
        for doc_id, score in entries:
            if doc_id in seen:
                raise ValidationError(f"document {doc_id!r} appears in more than one language run")
            seen.add(doc_id)
            pooled.append((doc_id, score))
    pooled.sort(key=lambda entry: (-entry[1], entry[0]))
    return pooled[:k]
