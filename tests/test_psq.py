import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from xlir.errors import FormatError, ValidationError
from xlir.psq import load_table, prune_table, table_from_rows, translate_doc, write_table


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


class TestLoadTable:
    def test_grouping(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, [("a", "x", 0.6), ("a", "y", 0.4)])
        table = load_table(path)
        assert table["a"] == [("x", 0.6), ("y", 0.4)]

    def test_mass_violation(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, [("a", "x", 0.8), ("a", "y", 0.4)])
        with pytest.raises(FormatError, match=r"t\.tsv: source 'a': translation probabilities sum to 1\.2"):
            load_table(path)

    def test_duplicate_row_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\ty\t0.5\na\tx\t0.5\n\na\tx\t0.5\n")
        with pytest.raises(FormatError, match=r"t\.tsv:4: duplicate translation row \('a', 'x'\)"):
            load_table(path)

    def test_singleton(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, [("b", "x", 1.0)])
        assert load_table(path)["b"] == [("x", 1.0)]

    @pytest.mark.parametrize("bad", ["0.0", "-0.1", "1.5", "abc"])
    def test_probability_range(self, tmp_path, bad):
        path = tmp_path / "t.tsv"
        path.write_text(f"a\tx\t{bad}\n")
        with pytest.raises(FormatError, match=":1"):
            load_table(path)

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\n")
        with pytest.raises(FormatError, match="3 tab-separated"):
            load_table(path)

    def test_sorted_descending(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, [("a", "y", 0.2), ("a", "x", 0.5), ("a", "z", 0.3)])
        assert load_table(path)["a"] == [("x", 0.5), ("z", 0.3), ("y", 0.2)]


class TestTableFromRows:
    @pytest.mark.parametrize("prob", [-0.5, 0.0, math.nan, 1.5, math.inf])
    def test_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValidationError, match=r"\('a', 'y'\): probability"):
            table_from_rows([("a", "x", 0.5), ("a", "y", prob)])

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            table_from_rows([("a", "x", 0.3), ("a", "x", 0.3)])

    def test_mass_check_does_not_depend_on_row_order(self):
        # Added left to right these sum to 1.0000010000000001 in this order and to 1.000001 in the
        # reverse one, either side of the tolerance; write_table reorders rows, so both must agree.
        rows = [("s", "x", 0.12390033426182066), ("s", "y", 0.34660180792803147), ("s", "z", 0.5294988578101479)]
        for ordered in (rows, rows[::-1]):
            with pytest.raises(ValidationError, match="sum to 1.000001 > 1"):
                table_from_rows(ordered)


# Tokens a table file can hold: no field or line separator, and no lone surrogate.
_tokens = st.text(st.characters(exclude_characters="\t\n\r", exclude_categories=["Cs"]), max_size=6)


@st.composite
def tables(draw):
    """A table ``table_from_rows`` accepts: each source's probabilities are scaled by 1/n
    over its n targets, so their sum cannot pass 1."""
    grouped = draw(st.dictionaries(_tokens, st.dictionaries(_tokens, st.floats(0.0, 1.0, exclude_min=True),
                                                            min_size=1, max_size=4), max_size=6))
    rows = [(s, t, p / len(targets)) for s, targets in grouped.items() for t, p in targets.items()]
    try:
        return table_from_rows(rows)
    except ValidationError:
        assume(False)  # a probability that underflowed to 0 when scaled


class TestWriteTable:
    def test_rows_in_source_target_order(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, table_from_rows([("b", "x", 1.0), ("a", "z", 0.75), ("a", "y", 0.25)]))
        assert path.read_text(encoding="utf-8") == "a\ty\t0.25\na\tz\t0.75\nb\tx\t1.0\n"

    @pytest.mark.parametrize("source,target", [("a\tb", "x"), ("a", "x\n"), ("a\r", "x"), ("\ud800", "x"), (7, "x")])
    def test_unwritable_token_rejected_before_opening(self, tmp_path, source, target):
        path = tmp_path / "t.tsv"
        with pytest.raises(ValidationError, match="expected a string with no tab, line break or lone surrogate"):
            write_table(path, {"ok": [("fine", 1.0)], source: [(target, 1.0)]})
        assert not path.exists()

    @given(tables())
    def test_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            write_table(path, table)
            assert load_table(path) == table


class TestPruneTable:
    def test_max_alts_renormalizes(self):
        table = table_from_rows([("a", "x", 0.5), ("a", "y", 0.3), ("a", "z", 0.2)])
        pruned = prune_table(table, cum_mass=1.0, max_alts=2)
        # Keep the top two entries and renormalize by 0.8.
        ((tx, px), (ty, py)) = pruned["a"]
        assert (tx, ty) == ("x", "y")
        assert px == pytest.approx(0.625, abs=1e-12)
        assert py == pytest.approx(0.375, abs=1e-12)

    def test_singleton_unchanged(self):
        table = table_from_rows([("a", "x", 0.7)])
        assert prune_table(table)["a"] == [("x", 1.0)]

    def test_cum_mass_stops_at_first(self):
        table = table_from_rows([("a", "x", 0.5), ("a", "y", 0.3), ("a", "z", 0.2)])
        assert prune_table(table, cum_mass=0.5, max_alts=10)["a"] == [("x", 1.0)]

    def test_invalid_params(self):
        table = table_from_rows([("a", "x", 1.0)])
        with pytest.raises(ValidationError):
            prune_table(table, cum_mass=0.0)
        with pytest.raises(ValidationError):
            prune_table(table, max_alts=0)

    def test_renormalized_mass_sums_to_one(self):
        rng = np.random.default_rng(7)
        rows = []
        for s in range(20):
            probs = rng.dirichlet(np.ones(6)) * rng.uniform(0.5, 1.0)
            rows.extend((f"s{s}", f"t{j}", float(p)) for j, p in enumerate(probs))
        pruned = prune_table(table_from_rows(rows), cum_mass=0.8, max_alts=3)
        for targets in pruned.values():
            assert sum(p for _, p in targets) == pytest.approx(1.0, abs=1e-9)
            probs = [p for _, p in targets]
            assert probs == sorted(probs, reverse=True)


def matrix_oracle(counts, table):
    """Count-vector times probability-matrix product."""
    sources = sorted(set(counts) | set(table))
    targets = sorted({t for row in table.values() for t, _ in row})
    vec = np.array([counts.get(s, 0.0) for s in sources], dtype=np.float64)
    mat = np.zeros((len(sources), len(targets)))
    for i, s in enumerate(sources):
        for t, p in table.get(s, []):
            mat[i, targets.index(t)] += p
    out = vec @ mat
    return {t: out[j] for j, t in enumerate(targets) if out[j] > 0}


class TestTranslateDoc:
    def test_identity_table(self):
        table = table_from_rows([("a", "a", 1.0)])
        assert translate_doc({"a": 3}, table) == {"a": 3.0}

    def test_worked_example(self):
        table = table_from_rows([("a", "x", 0.6), ("a", "y", 0.4), ("b", "x", 1.0)])
        bag = translate_doc({"a": 2, "b": 1}, table)
        assert bag == pytest.approx({"x": 2.2, "y": 0.8})

    def test_out_of_vocabulary(self):
        table = table_from_rows([("a", "x", 1.0)])
        assert translate_doc({"q": 5}, table) == {}

    def random_table_and_counts(self, rng, n_sources=50, n_targets=50):
        rows = []
        for s in range(n_sources):
            k = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(k))
            picks = rng.choice(n_targets, size=k, replace=False)
            rows.extend((f"s{s}", f"t{j}", float(p)) for j, p in zip(picks, probs))
        table = table_from_rows(rows)
        counts = {f"s{int(s)}": float(rng.integers(1, 10)) for s in rng.choice(n_sources, 30, replace=False)}
        return table, counts

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table, counts = self.random_table_and_counts(rng)
            bag = translate_doc(counts, table)
            oracle = matrix_oracle(counts, table)
            assert set(bag) == set(oracle)
            for term in bag:
                assert bag[term] == pytest.approx(oracle[term], abs=1e-9)

    def test_mass_conservation(self):
        rng = np.random.default_rng(13)
        table, counts = self.random_table_and_counts(rng)
        bag = translate_doc(counts, table)
        expected = sum(
            count * sum(p for _, p in table[source])
            for source, count in counts.items()
            if source in table
        )
        assert sum(bag.values()) == pytest.approx(expected, abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        table, counts1 = self.random_table_and_counts(rng)
        _, counts2 = self.random_table_and_counts(rng)
        merged = dict(counts1)
        for source, count in counts2.items():
            merged[source] = merged.get(source, 0.0) + count
        left = translate_doc(merged, table)
        b1, b2 = translate_doc(counts1, table), translate_doc(counts2, table)
        right = dict(b1)
        for term, w in b2.items():
            right[term] = right.get(term, 0.0) + w
        assert set(left) == set(right)
        for term in left:
            assert left[term] == pytest.approx(right[term], abs=1e-9)
