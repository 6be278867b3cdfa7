import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.dense import DenseIndexParams, build_dense_index, search_dense
from xlir.distill import (
    DistillPair,
    distill_loss,
    mine_hard_passages,
    read_distill_file,
    write_distill_file,
)
from xlir.errors import FormatError, ValidationError


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


@pytest.fixture
def small_index():
    rng = np.random.default_rng(51)
    embeddings = {
        f"p{i:03d}": unit_rows(rng.standard_normal((4, 8))).astype(np.float32) for i in range(10)
    }
    return build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=7))


class TestMineHardPassages:
    def test_truncates_at_corpus_size(self, small_index):
        rng = np.random.default_rng(0)
        query = unit_rows(rng.standard_normal((3, 8)))
        mined = mine_hard_passages(small_index, query, k=50)
        assert len(mined) == 10

    def test_k1_equals_exhaustive_argmax(self, small_index):
        rng = np.random.default_rng(1)
        query = unit_rows(rng.standard_normal((3, 8)))
        (top,) = mine_hard_passages(small_index, query, k=1)
        full = search_dense(small_index, query)
        assert top == full[0]

    def test_deterministic(self, small_index):
        rng = np.random.default_rng(2)
        query = unit_rows(rng.standard_normal((3, 8)))
        assert mine_hard_passages(small_index, query, k=5) == mine_hard_passages(
            small_index, query, k=5
        )

    def test_prefix_property(self, small_index):
        rng = np.random.default_rng(3)
        query = unit_rows(rng.standard_normal((3, 8)))
        for k in range(1, 10):
            assert mine_hard_passages(small_index, query, k=k + 1)[:k] == mine_hard_passages(
                small_index, query, k=k
            )

    def test_k_validation(self, small_index):
        with pytest.raises(ValidationError):
            mine_hard_passages(small_index, np.ones((1, 8)), k=0)


class TestDistillLoss:
    def test_identical_lists_zero(self):
        assert distill_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        # teacher [1, 0] vs student [0, 0]: p = softmax([1, 0]), q = (0.5, 0.5).
        p1 = math.exp(1) / (math.exp(1) + 1)
        expected = p1 * math.log(p1 / 0.5) + (1 - p1) * math.log((1 - p1) / 0.5)
        loss = distill_loss([1.0, 0.0], [0.0, 0.0])
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.1109, abs=1e-4)

    @given(
        scores=st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8),
        shift_t=st.floats(min_value=-50, max_value=50),
        shift_s=st.floats(min_value=-50, max_value=50),
    )
    def test_shift_invariance(self, scores, shift_t, shift_s):
        student = [s * 0.5 + 1.0 for s in scores]
        base = distill_loss(scores, student)
        shifted = distill_loss([s + shift_t for s in scores], [s + shift_s for s in student])
        assert shifted == pytest.approx(base, abs=1e-9)

    @given(
        teacher=st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_non_negative(self, teacher, seed):
        rng = np.random.default_rng(seed)
        student = rng.standard_normal(len(teacher)).tolist()
        assert distill_loss(teacher, student) >= -1e-12

    def test_zero_iff_equal_distributions(self):
        # Equal softmax distributions can come from shifted score lists.
        assert distill_loss([1.0, 2.0], [4.0, 5.0]) == pytest.approx(0.0, abs=1e-12)
        assert distill_loss([1.0, 2.0], [2.0, 1.0]) > 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            distill_loss([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            distill_loss([1.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            distill_loss([1.0, float("nan")], [0.0, 0.0])
        with pytest.raises(ValidationError):
            distill_loss([1.0, 0.0], [float("inf"), 0.0])

    def test_temperature_softens(self):
        hot = distill_loss([3.0, 0.0], [0.0, 0.0], temperature=1.0)
        cool = distill_loss([3.0, 0.0], [0.0, 0.0], temperature=5.0)
        assert cool < hot


class TestDistillFile:
    def test_round_trip(self, tmp_path):
        pairs = [
            DistillPair("q1", ["p1", "p2", "p3"], [0.5, 0.25, -1.0]),
            DistillPair("q2", ["p9", "p4"], [2.0, 1.5]),
        ]
        path = tmp_path / "distill.jsonl"
        write_distill_file(path, pairs)
        loaded = read_distill_file(path)
        assert [(p.query_id, p.passage_ids, p.teacher_scores) for p in loaded] == [
            (p.query_id, p.passage_ids, p.teacher_scores) for p in pairs
        ]

    @pytest.mark.parametrize(
        "old,new,message",
        [(b"p2", b"p\xff", ": not UTF-8"), (b"0.25", b'"abc"', ":1: malformed")],
        ids=["non-utf8", "text-score"],
    )
    def test_malformed_file_is_a_format_error(self, tmp_path, old, new, message):
        path = tmp_path / "distill.jsonl"
        write_distill_file(path, [DistillPair("q1", ["p1", "p2"], [0.5, 0.25])])
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(FormatError, match=re.escape(f"{path}{message}")):
            read_distill_file(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"query_id": 7, "passages": [{"pid": 1, "teacher": true}, {"pid": 2, "teacher": "0.5"}]}',
            '{"query_id": 7, "passages": [{"pid": "p1", "teacher": 1.0}, {"pid": "p2", "teacher": 0.5}]}',
            '{"query_id": "q", "passages": [{"pid": 1, "teacher": 1.0}, {"pid": "p2", "teacher": 0.5}]}',
            '{"query_id": "q", "passages": [{"pid": "p1", "teacher": true}, {"pid": "p2", "teacher": 0.5}]}',
            '{"query_id": "q", "passages": [{"pid": "p1", "teacher": "1.0"}, {"pid": "p2", "teacher": 0.5}]}',
            '{"query_id": "q", "passages": [{"pid": "p1", "teacher": null}, {"pid": "p2", "teacher": 0.5}]}',
            '{"query_id": "q", "passages": {"pid": "p1", "teacher": 1.0}}',
            '{"query_id": "q", "passages": [{"pid": "p1", "teacher": 1%s}, {"pid": "p2", "teacher": 0.5}]}'
            % ("0" * 400),
        ],
        ids=["all-mistyped", "numeric-query-id", "numeric-pid", "boolean-teacher", "text-teacher", "null-teacher",
             "passages-not-a-list", "integer-beyond-float"],
    )
    def test_mistyped_record_is_a_format_error(self, tmp_path, line):
        path = tmp_path / "distill.jsonl"
        path.write_text('{"query_id": "q0", "passages": [{"pid": "a", "teacher": 1}, {"pid": "b", "teacher": 0}]}\n'
                        + line + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: malformed")):
            read_distill_file(path)

    def test_pair_validation(self):
        with pytest.raises(ValidationError):
            DistillPair("q", ["only"], [1.0])
        with pytest.raises(ValidationError):
            DistillPair("q", ["a", "b"], [1.0])
