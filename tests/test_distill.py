import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlir.cli import main
from xlir.dense import DenseIndexParams, build_dense_index, save_dense_index, search_dense, write_embeddings
from xlir.distill import distill_loss, read_distill_file, write_distill_file
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


class TestMineDistill:
    """``xlir mine-distill`` lists each query's passages as the dense search ranks them, cut at ``--k``."""

    @pytest.fixture
    def mine(self, small_index, tmp_path):
        rng = np.random.default_rng(3)
        queries = {f"q{i}": unit_rows(rng.standard_normal((3, 8))).astype(np.float32) for i in range(4)}
        save_dense_index(small_index, tmp_path / "idx")
        write_embeddings(tmp_path / "queries.emb", queries)

        def run(k, index=tmp_path / "idx"):
            out = tmp_path / f"k{k}.jsonl"
            code = main(["mine-distill", "--index", str(index), "--query-embeddings", str(tmp_path / "queries.emb"),
                         "--k", str(k), "--output", str(out)])
            return code, out

        return queries, run

    def test_lists_every_passage_when_k_exceeds_the_index(self, small_index, mine):
        queries, run = mine
        code, out = run(50)
        assert code == 0
        mined = read_distill_file(out)
        assert mined == {query_id: search_dense(small_index, vectors) for query_id, vectors in queries.items()}
        assert all(len(scored) == len(small_index) == 10 for scored in mined.values())

    def test_a_smaller_k_mines_a_prefix(self, mine):
        _, run = mine
        full = read_distill_file(run(10)[1])
        for k in range(2, 10):
            assert read_distill_file(run(k)[1]) == {query_id: scored[:k] for query_id, scored in full.items()}
        # One passage is too few to train on, so k = 1 skips every query.
        assert read_distill_file(run(1)[1]) == {}

    def test_k_below_one_is_refused_before_loading(self, mine, tmp_path, capsys):
        _, run = mine
        code, out = run(0, index=tmp_path / "missing")
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines()[-1] == "error: k must be >= 1, got 0"
        assert not out.exists()


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
        # Teacher scores may rise down the list: an external teacher reorders nothing.
        pairs = {"q1": [("p1", 0.5), ("p2", 0.25), ("p3", -1.0)], "q2": [("p9", 1.5), ("p4", 2.0)]}
        path = tmp_path / "distill.jsonl"
        write_distill_file(path, pairs)
        assert read_distill_file(path) == pairs

    @pytest.mark.parametrize(
        "old,new,message",
        [(b"p2", b"p\xff", ": not UTF-8"), (b"0.25", b'"abc"', ":1: malformed")],
        ids=["non-utf8", "text-score"],
    )
    def test_malformed_file_is_a_format_error(self, tmp_path, old, new, message):
        path = tmp_path / "distill.jsonl"
        write_distill_file(path, {"q1": [("p1", 0.5), ("p2", 0.25)]})
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(FormatError, match=re.escape(f"{path}{message}")):
            read_distill_file(path)

    @pytest.mark.parametrize("field", ["query_id", "pid"])
    def test_lone_surrogate_is_a_format_error(self, tmp_path, field):
        path = tmp_path / "distill.jsonl"
        query_id, pid = ("q\ud800", "p1") if field == "query_id" else ("q1", "p\udfff")
        path.write_text('{"query_id": "q0", "passages": [{"pid": "a", "teacher": 1}, {"pid": "b", "teacher": 0}]}\n'
                        + json.dumps({"query_id": query_id, "passages": [{"pid": pid, "teacher": 1.0},
                                                                          {"pid": "p2", "teacher": 0.5}]}) + "\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: holds a lone surrogate")):
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

    @pytest.mark.parametrize(
        "scored,message",
        [
            ([("p1", 1.0)], "need at least 2 passages, got 1"),
            ([], "need at least 2 passages, got 0"),
            ([("p1", 1.0), ("p2", math.nan)], "passage 'p2' has teacher score nan"),
            ([("p1", math.inf), ("p2", 0.0)], "passage 'p1' has teacher score inf"),
            ([("p1", 1.0), ("p2", -math.inf)], "passage 'p2' has teacher score -inf"),
            ([("p", 1.0), ("p", 0.5)], "passage 'p' is listed twice"),
        ],
        ids=["one-passage", "no-passages", "nan", "infinity", "minus-infinity", "passage-twice"],
    )
    def test_write_refuses_an_unfit_query_before_writing(self, tmp_path, scored, message):
        path = tmp_path / "distill.jsonl"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: query 'q2': {message}")):
            write_distill_file(path, {"q1": [("a", 1.0), ("b", 0.0)], "q2": scored})
        assert not path.exists()

    @pytest.mark.parametrize(
        "pairs,query",
        [
            ({7: [("p1", 1.0), ("p2", 0.5)]}, "7"),
            ({"q": [(1, 1.0), (2, 0.5)]}, "'q'"),
            ({"q": [("p1", True), ("p2", 0.5)]}, "'q'"),
            ({"q": [("p1", "1.0"), ("p2", 0.5)]}, "'q'"),
        ],
        ids=["numeric-query-id", "numeric-pid", "boolean-teacher", "text-teacher"],
    )
    def test_write_refuses_what_read_takes_as_mistyped_before_writing(self, tmp_path, pairs, query):
        path = tmp_path / "distill.jsonl"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: query {query}: expected a string id")):
            write_distill_file(path, {"q0": [("a", 1.0), ("b", 0.0)], **pairs})
        assert not path.exists()

    @pytest.mark.parametrize(
        "pairs,query,bad",
        [({"q\ud800": [("p1", 1.0), ("p2", 0.5)]}, "q\\ud800", "q\\ud800"),
         ({"q": [("p1", 1.0), ("p\udfff", 0.5)]}, "q", "p\\udfff")],
        ids=["query-id", "pid"],
    )
    def test_write_refuses_a_lone_surrogate_before_writing(self, tmp_path, pairs, query, bad):
        # The file is UTF-8, which cannot hold one; it is refused before the file is opened.
        path = tmp_path / "distill.jsonl"
        message = f"{path}: query '{query}': id '{bad}' holds a lone surrogate"
        with pytest.raises(ValidationError, match=re.escape(message)):
            write_distill_file(path, {"q0": [("a", 1.0), ("b", 0.0)], **pairs})
        assert not path.exists()

    @pytest.mark.parametrize(
        "passages,message",
        [
            ('[{"pid": "p1", "teacher": 1.0}]', "need at least 2 passages, got 1"),
            ("[]", "need at least 2 passages, got 0"),
            ('[{"pid": "p1", "teacher": 1.0}, {"pid": "p2", "teacher": NaN}]', "passage 'p2' has teacher score nan"),
            ('[{"pid": "p1", "teacher": Infinity}, {"pid": "p2", "teacher": 0}]', "passage 'p1' has teacher score inf"),
            ('[{"pid": "p1", "teacher": 1}, {"pid": "p2", "teacher": -Infinity}]',
             "passage 'p2' has teacher score -inf"),
            ('[{"pid": "p1", "teacher": 1e400}, {"pid": "p2", "teacher": 0}]', "passage 'p1' has teacher score inf"),
            ('[{"pid": "p", "teacher": 1.0}, {"pid": "p", "teacher": 0.5}]', "passage 'p' is listed twice"),
        ],
        ids=["one-passage", "no-passages", "nan", "infinity", "minus-infinity", "overflowing-float",
             "passage-twice"],
    )
    def test_read_refuses_an_unfit_query(self, tmp_path, passages, message):
        path = tmp_path / "distill.jsonl"
        path.write_text('{"query_id": "q1", "passages": [{"pid": "a", "teacher": 1}, {"pid": "b", "teacher": 0}]}\n'
                        f'{{"query_id": "q2", "passages": {passages}}}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: query 'q2': {message}")):
            read_distill_file(path)

    def test_read_refuses_a_query_listed_twice(self, tmp_path):
        path = tmp_path / "distill.jsonl"
        write_distill_file(path, {"q1": [("a", 1.0), ("b", 0.0)], "q2": [("c", 1.0), ("d", 0.0)]})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"query_id": "q1", "passages": [{"pid": "e", "teacher": 1}, {"pid": "f", "teacher": 0}]}\n')
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: query 'q1' is listed twice")):
            read_distill_file(path)
