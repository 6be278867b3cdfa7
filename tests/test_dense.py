import logging
from dataclasses import replace

import numpy as np
import pytest

from xlir import dense
from xlir.dense import (
    CompressedPassage,
    DenseIndex,
    DenseIndexParams,
    ResidualCodebook,
    build_dense_index,
    compress,
    decompress,
    load_dense_index,
    load_embeddings,
    maxp_aggregate,
    maxsim,
    save_dense_index,
    search_dense,
    train_codebook,
    write_embeddings,
)
from xlir.errors import FormatError, ValidationError


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def random_embeddings(rng, num_passages, dim, min_tokens=2, max_tokens=12, prefix="p"):
    out = {}
    for i in range(num_passages):
        n = int(rng.integers(min_tokens, max_tokens + 1))
        out[f"{prefix}{i:04d}"] = unit_rows(rng.standard_normal((n, dim))).astype(np.float32)
    return out


def brute_force_maxsim(query, doc):
    """Independent double-loop implementation."""
    total = 0.0
    for q in query:
        best = -np.inf
        for d in doc:
            dot = float(np.dot(np.asarray(q, dtype=np.float64), np.asarray(d, dtype=np.float64)))
            if dot > best:
                best = dot
        total += best
    return total


def exhaustive_search(index, query):
    """Score every passage over decompressed vectors with the brute-force scorer."""
    scored = [
        (key, brute_force_maxsim(query, index.decompress_passage(i)))
        for i, key in enumerate(index.keys)
    ]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored


def per_passage_search(index, embeddings, query, params):
    """Staged search over one CompressedPassage per passage, with Python sets and sorts.

    Returns the results and the number of stage-1 candidates.
    """
    passages = [compress(embeddings[key], index.codebook, key=key) for key in index.keys]
    inverted = {}
    for ordinal, cp in enumerate(passages):
        for cid in np.unique(cp.centroid_ids):
            inverted.setdefault(int(cid), set()).add(ordinal)
    centroid_sims = query @ index.codebook.centroids.astype(np.float64).T
    probed = set()
    for row in centroid_sims:
        probed.update(int(c) for c in np.argsort(-row, kind="stable")[: params.nprobe])
    candidates = set()
    for cid in probed:
        candidates.update(inverted.get(cid, ()))
    approx = []
    for ordinal in candidates:
        score = float(centroid_sims[:, passages[ordinal].centroid_ids].max(axis=1).sum())
        approx.append((score, index.keys[ordinal], ordinal))
    approx.sort(key=lambda entry: (-entry[0], entry[1]))
    results = [
        (key, maxsim(query, decompress(passages[ordinal], index.codebook)))
        for _, key, ordinal in approx[: params.candidate_cap]
    ]
    results.sort(key=lambda entry: (-entry[1], entry[0]))
    return results, len(candidates)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        embeddings = random_embeddings(rng, 2, 4)
        path = tmp_path / "e.bin"
        write_embeddings(path, embeddings)
        loaded = load_embeddings(path)
        assert list(loaded) == list(embeddings)
        for key in embeddings:
            np.testing.assert_array_equal(loaded[key], embeddings[key])

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "e.bin"
        write_embeddings(path, random_embeddings(rng, 1, 4))
        data = bytearray(path.read_bytes())
        data[5] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_embeddings(path)

    def test_non_unit_vector_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        bad = {"p0": np.full((1, 4), 0.25, dtype=np.float32)}  # norm 0.5
        write_embeddings(path, bad)
        with pytest.raises(ValidationError, match="norm"):
            load_embeddings(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "e.bin"
        write_embeddings(path, random_embeddings(rng, 2, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated") as caught:
            load_embeddings(path)
        assert str(caught.value).startswith(f"{path}: ")


def test_default_num_centroids_heuristic():
    # 2 ** ceil(log2(16 * sqrt(T)))
    assert DenseIndexParams.default_num_centroids(1) == 16
    assert DenseIndexParams.default_num_centroids(100) == 256
    assert DenseIndexParams.default_num_centroids(10_000) == 2048


def test_write_embeddings_rejects_empty(tmp_path):
    with pytest.raises(ValidationError):
        write_embeddings(tmp_path / "e.bin", {})


class TestTrainCodebook:
    def test_single_centroid_is_normalized_mean(self):
        rng = np.random.default_rng(1)
        embeddings = random_embeddings(rng, 5, 8)
        codebook = train_codebook(embeddings, DenseIndexParams(num_centroids=1, seed=3))
        tokens = np.vstack(list(embeddings.values())).astype(np.float64)
        mean = tokens.mean(axis=0)
        np.testing.assert_allclose(
            codebook.centroids[0], (mean / np.linalg.norm(mean)).astype(np.float32), atol=1e-6
        )

    def test_one_bit_bucket_values_are_signed_means(self):
        rng = np.random.default_rng(2)
        embeddings = random_embeddings(rng, 30, 6)
        params = DenseIndexParams(num_centroids=4, seed=5)
        codebook = train_codebook(embeddings, params)
        assert codebook.boundaries.shape == (6, 1)
        np.testing.assert_array_equal(codebook.boundaries, 0.0)
        # Oracle: recompute residuals against the trained centroids and take
        # per-dimension means of the negative and non-negative halves.
        tokens = np.vstack(list(embeddings.values())).astype(np.float64)
        centroids = codebook.centroids.astype(np.float64)
        assign = np.argmax(tokens @ centroids.T, axis=1)
        residuals = tokens - centroids[assign]
        for d in range(6):
            col = residuals[:, d]
            neg, pos = col[col < 0], col[col >= 0]
            if neg.size:
                assert codebook.values[d, 0] == pytest.approx(neg.mean(), abs=1e-12)
            if pos.size:
                assert codebook.values[d, 1] == pytest.approx(pos.mean(), abs=1e-12)

    def test_two_point_bucket_means(self):
        # Training residuals {-0.2, 0.4} in one dimension give exactly those
        # reconstruction values.
        from xlir.dense import _bucket_stats

        residuals = np.array([[-0.2], [0.4]])
        values = _bucket_stats(residuals, np.zeros((1, 1)), bits=1)
        assert values[0, 0] == pytest.approx(-0.2)
        assert values[0, 1] == pytest.approx(0.4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        embeddings = random_embeddings(rng, 40, 8)
        params = DenseIndexParams(num_centroids=8, seed=11)
        one = train_codebook(embeddings, params)
        two = train_codebook(embeddings, params)
        assert one.centroids.tobytes() == two.centroids.tobytes()
        assert one.boundaries.tobytes() == two.boundaries.tobytes()
        assert one.values.tobytes() == two.values.tobytes()

    def test_too_few_tokens(self):
        rng = np.random.default_rng(4)
        embeddings = random_embeddings(rng, 2, 4, min_tokens=1, max_tokens=1)
        with pytest.raises(ValidationError, match="num_centroids"):
            train_codebook(embeddings, DenseIndexParams(num_centroids=64))

    def test_multi_bit_boundaries_are_quantiles(self):
        rng = np.random.default_rng(5)
        embeddings = random_embeddings(rng, 50, 4)
        codebook = train_codebook(embeddings, DenseIndexParams(bits=2, num_centroids=4, seed=7))
        assert codebook.boundaries.shape == (4, 3)
        assert (np.diff(codebook.values, axis=1) > 0).all()


class TestCompression:
    @pytest.fixture
    def codebook(self):
        rng = np.random.default_rng(6)
        embeddings = random_embeddings(rng, 40, 8)
        return train_codebook(embeddings, DenseIndexParams(num_centroids=8, seed=9))

    def test_centroid_vector_maps_to_itself(self, codebook):
        vec = codebook.centroids[3:4].astype(np.float32)
        cp = compress(vec, codebook)
        assert cp.centroid_ids[0] == 3
        # Zero residual lands in the bucket containing zero (bit 1 for b=1).
        decoded = decompress(cp, codebook)
        np.testing.assert_allclose(
            decoded[0],
            codebook.centroids[3].astype(np.float64) + codebook.values[:, 1],
            atol=1e-6,
        )

    def test_positive_residual_codes_bit_one(self):
        codebook = ResidualCodebook(
            centroids=np.eye(1, 2, dtype=np.float32),  # single centroid (1, 0)
            boundaries=np.zeros((2, 1)),
            values=np.array([[-0.2, 0.4], [-0.1, 0.3]]),
            bits=1,
        )
        vec = np.array([[1.0, 0.3]], dtype=np.float32)  # residual (0.0, 0.3)
        cp = compress(vec, codebook)
        codes = np.unpackbits(cp.packed_codes, count=2)
        assert codes.tolist() == [1, 1]  # 0.0 >= 0 and 0.3 >= 0

    def test_round_trip_error_bounded_by_training_residuals(self):
        rng = np.random.default_rng(8)
        embeddings = random_embeddings(rng, 60, 8)
        params = DenseIndexParams(num_centroids=8, seed=13)
        codebook = train_codebook(embeddings, params)
        tokens = np.vstack(list(embeddings.values())).astype(np.float64)
        centroids = codebook.centroids.astype(np.float64)
        assign = np.argmax(tokens @ centroids.T, axis=1)
        residuals = tokens - centroids[assign]
        # Training-derived bound: worst in-bucket distance to the bucket value.
        from xlir.dense import _bucketize

        codes = _bucketize(residuals, codebook.boundaries)
        bound = np.zeros(8)
        for d in range(8):
            for level in (0, 1):
                members = residuals[codes[:, d] == level, d]
                if members.size:
                    bound[d] = max(bound[d], np.abs(members - codebook.values[d, level]).max())
        errors = []
        for key, matrix in embeddings.items():
            decoded = decompress(compress(matrix, codebook, key=key), codebook)
            err = np.abs(decoded.astype(np.float64) - matrix.astype(np.float64))
            errors.append(err.mean())
            assert (err <= bound + 1e-6).all()
        print(f"mean per-dimension reconstruction error: {np.mean(errors):.6f}")

    def test_fixed_point_round_trip_exact(self, codebook):
        # A vector built as centroid + reconstruction values re-encodes to the
        # same codes, so the round trip is bit-exact.
        centroid = codebook.centroids[0].astype(np.float64)
        for level in (0, 1):
            vec = (centroid + codebook.values[:, level]).astype(np.float32)
            # Only valid if the constructed vector still maps to centroid 0.
            cp = compress(vec.reshape(1, -1), codebook)
            if cp.centroid_ids[0] != 0:
                continue
            decoded = decompress(cp, codebook)
            np.testing.assert_array_equal(decoded[0], vec)

    def test_corrupted_centroid_id(self, codebook):
        vec = unit_rows(np.random.default_rng(0).standard_normal((1, 8))).astype(np.float32)
        cp = compress(vec, codebook)
        bad = CompressedPassage(
            key=cp.key,
            centroid_ids=np.array([99], dtype=np.int32),
            packed_codes=cp.packed_codes,
            num_tokens=1,
        )
        with pytest.raises(FormatError, match="corrupted"):
            decompress(bad, codebook)

    def test_multi_bit_round_trip(self):
        rng = np.random.default_rng(10)
        embeddings = random_embeddings(rng, 50, 6)
        params = DenseIndexParams(bits=3, num_centroids=4, seed=15)
        codebook = train_codebook(embeddings, params)
        for matrix in list(embeddings.values())[:5]:
            cp = compress(matrix, codebook)
            decoded = decompress(cp, codebook)
            assert decoded.shape == matrix.shape
            # 3-bit coding should beat 1-bit coding on average error.
            assert np.abs(decoded - matrix).mean() < 0.2


class TestMaxSim:
    def test_identical_token(self):
        e1, e2 = np.eye(2, dtype=np.float64)
        assert maxsim(np.array([e1]), np.array([e1, e2])) == pytest.approx(1.0)

    def test_row_maxima_sum(self):
        query = np.eye(2)
        doc = np.array([[0.9, 0.2], [0.1, 0.8]])
        # Dot matrix [[0.9, 0.1], [0.2, 0.8]] -> 0.9 + 0.8.
        assert maxsim(query, doc) == pytest.approx(1.7)

    def test_orthogonal_contributes_zero(self):
        e1, e2 = np.eye(2)
        assert maxsim(np.array([e1, e2]), np.array([e1])) == pytest.approx(1.0)

    def test_empty_doc_rejected(self):
        with pytest.raises(ValidationError):
            maxsim(np.ones((1, 4)), np.zeros((0, 4)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            query = rng.standard_normal((int(rng.integers(1, 6)), 8))
            doc = rng.standard_normal((int(rng.integers(1, 10)), 8))
            assert maxsim(query, doc) == pytest.approx(brute_force_maxsim(query, doc), abs=1e-6)


class TestSearch:
    def build(self, rng, num_passages=60, dim=8, **kwargs):
        embeddings = random_embeddings(rng, num_passages, dim)
        defaults = dict(num_centroids=8, seed=21, candidate_cap=1000)
        defaults.update(kwargs)
        return build_dense_index(embeddings, DenseIndexParams(**defaults)), embeddings

    def test_single_centroid_degenerate_probing(self):
        rng = np.random.default_rng(14)
        index, _ = self.build(rng, num_passages=20, num_centroids=1)
        query = unit_rows(rng.standard_normal((3, 8)))
        got = search_dense(index, query)
        assert [key for key, _ in got] == [key for key, _ in exhaustive_search(index, query)]

    def test_oracle_equivalence_full_probe(self):
        rng = np.random.default_rng(16)
        index, _ = self.build(rng)
        params = DenseIndexParams(num_centroids=8, nprobe=8, candidate_cap=10_000, seed=21)
        query = unit_rows(rng.standard_normal((4, 8)))
        got = search_dense(index, query, params)
        oracle = exhaustive_search(index, query)
        assert [key for key, _ in got] == [key for key, _ in oracle]
        for (_, a), (_, b) in zip(got, oracle):
            assert a == pytest.approx(b, abs=1e-9)

    def test_probed_centroids_without_passages_score_nothing(self, caplog):
        rng = np.random.default_rng(19)
        index, _ = self.build(rng, num_passages=20)
        unused = unit_rows(rng.standard_normal((1, 8))).astype(np.float32)
        codebook = replace(index.codebook, centroids=np.vstack([index.codebook.centroids, unused]))
        widened = DenseIndex(
            codebook, index.keys, np.diff(index.token_offsets), index.centroid_ids, index.packed_codes, index.params
        )
        assert widened.inverted_offsets[-1] == widened.inverted_offsets[-2]
        with caplog.at_level(logging.INFO, logger="xlir"):
            assert search_dense(widened, unused, DenseIndexParams(nprobe=1)) == []
        (event,) = [m for m in caplog.messages if "event=dense_search" in m]
        assert "candidates=0 scored=0" in event

    def test_single_passage_corpus(self):
        rng = np.random.default_rng(18)
        index, _ = self.build(rng, num_passages=1, num_centroids=1)
        query = unit_rows(rng.standard_normal((2, 8)))
        ((key, score),) = search_dense(index, query)
        assert key == "p0000"
        assert score == pytest.approx(brute_force_maxsim(query, index.decompress_passage(0)), abs=1e-9)

    def test_empty_query_rejected(self):
        rng = np.random.default_rng(20)
        index, _ = self.build(rng, num_passages=5)
        with pytest.raises(ValidationError):
            search_dense(index, np.zeros((0, 8)))

    def test_recall_monotone_in_nprobe(self):
        rng = np.random.default_rng(22)
        index, _ = self.build(rng, num_passages=120, num_centroids=16)
        query = unit_rows(rng.standard_normal((4, 8)))
        oracle_top = {key for key, _ in exhaustive_search(index, query)[:10]}
        recalls = []
        for nprobe in (1, 2, 4, 8, 16):
            params = DenseIndexParams(num_centroids=16, nprobe=nprobe, candidate_cap=1000, seed=21)
            got = {key for key, _ in search_dense(index, query, params)[:10]}
            recalls.append(len(got & oracle_top) / 10)
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_deterministic_rankings(self):
        rng = np.random.default_rng(24)
        embeddings = random_embeddings(rng, 40, 8)
        params = DenseIndexParams(num_centroids=8, seed=31)
        one = build_dense_index(embeddings, params)
        two = build_dense_index(embeddings, params)
        query = unit_rows(np.random.default_rng(9).standard_normal((3, 8)))
        assert search_dense(one, query) == search_dense(two, query)


def reference_decompress(index, ordinal):
    """Passage ``ordinal`` decoded token by token from the index arrays, with no shared code."""
    dim, bits = index.codebook.dim, index.codebook.bits
    t0, t1 = index.token_offsets[ordinal : ordinal + 2]
    code_bits = np.unpackbits(index.packed_codes[index.byte_offsets[ordinal] :])
    rows = []
    for t, cid in enumerate(index.centroid_ids[t0:t1]):
        row = []
        for d in range(dim):
            start = (t * dim + d) * bits
            level = int("".join(str(b) for b in code_bits[start : start + bits]), 2)
            row.append(float(index.codebook.centroids[cid, d]) + float(index.codebook.values[d, level]))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, dim).astype(np.float32)


def flat_layout_index(dim, bits):
    """More passages than one decoding block, short enough to tie often on centroid
    scores, with shuffled keys so passage order is not key order."""
    rng = np.random.default_rng(40)
    embeddings = random_embeddings(rng, 150, dim, min_tokens=1, max_tokens=4)
    keys = list(embeddings)
    embeddings = {keys[i]: embeddings[keys[i]] for i in rng.permutation(len(keys))}
    index = build_dense_index(embeddings, DenseIndexParams(bits=bits, num_centroids=16, kmeans_iters=5, seed=41))
    assert len(index) > dense._DECODE_BLOCK and (np.diff(index.token_offsets) == 1).any()
    return index, embeddings


def assert_staged_search_equals_reference(index, embeddings, tmp_path):
    save_dense_index(index, tmp_path / "idx")
    loaded = load_dense_index(tmp_path / "idx")
    rng = np.random.default_rng(42)
    cut = 0
    for nprobe, cap in [(1, 5), (1, 20), (2, 10), (3, 40), (4, 100), (16, 7), (16, 1000)]:
        params = DenseIndexParams(nprobe=nprobe, candidate_cap=cap)
        for _ in range(4):
            query = unit_rows(rng.standard_normal((int(rng.integers(1, 12)), index.codebook.dim)))
            expected, candidates = per_passage_search(index, embeddings, query, params)
            cut += candidates > cap
            assert search_dense(index, query, params) == expected
            assert search_dense(loaded, query, params) == expected
    assert cut >= 16


class TestFlatLayout:
    @pytest.fixture
    def built(self):
        return flat_layout_index(8, 1)

    # (dim, bits): codes padded at the end of each passage, and whole-byte codes.
    @pytest.fixture(params=[(5, 3), (7, 2), (8, 8)], ids=lambda p: f"dim{p[0]}-bits{p[1]}")
    def coded(self, request):
        return flat_layout_index(*request.param)

    def test_inverted_map_lists_passages_per_centroid(self, built):
        index, embeddings = built
        expected = {}
        for ordinal, key in enumerate(index.keys):
            for cid in compress(embeddings[key], index.codebook).centroid_ids:
                expected.setdefault(int(cid), set()).add(ordinal)
        offsets = index.inverted_offsets
        got = {
            cid: index.inverted_passages[offsets[cid] : offsets[cid + 1]].tolist()
            for cid in range(index.codebook.num_centroids)
            if offsets[cid + 1] > offsets[cid]
        }
        assert got == {cid: sorted(ordinals) for cid, ordinals in expected.items()}

    def test_staged_search_equals_per_passage_reference(self, built, tmp_path):
        assert_staged_search_equals_reference(*built, tmp_path)

    def test_staged_search_equals_per_passage_reference_for_multi_bit_codes(self, coded, tmp_path):
        assert_staged_search_equals_reference(*coded, tmp_path)

    @pytest.mark.parametrize("dim, bits", [(8, 1), (5, 3), (7, 2), (8, 8)])
    def test_block_decoder_equals_per_passage_decoding(self, dim, bits):
        index, _ = flat_layout_index(dim, bits)
        ordinals = np.random.default_rng(43).permutation(len(index))
        vectors, offsets = index.decode(ordinals)
        assert offsets.tolist() == [0, *np.cumsum(np.diff(index.token_offsets)[ordinals]).tolist()]
        np.testing.assert_array_equal(vectors, np.vstack([reference_decompress(index, i) for i in ordinals]))
        np.testing.assert_array_equal(vectors, np.vstack([index.decompress_passage(i) for i in ordinals]))

    def test_each_passage_scored_by_its_own_product_at_dim_128(self):
        # At dim 128 one matrix product per decoded block sums most dot products
        # in a different order than a product per passage, changing the last bit.
        rng = np.random.default_rng(44)
        embeddings = random_embeddings(rng, 200, 128, min_tokens=1, max_tokens=12)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=16, kmeans_iters=3, seed=45))
        params = DenseIndexParams(nprobe=16, candidate_cap=1000)
        for _ in range(3):
            query = unit_rows(rng.standard_normal((32, 128)))
            expected, _ = per_passage_search(index, embeddings, query, params)
            assert len(expected) == len(index) > dense._DECODE_BLOCK
            assert search_dense(index, query, params) == expected


class TestMaxP:
    def test_max_over_passages(self):
        assert maxp_aggregate([("d1", 0.2), ("d1", 0.9), ("d1", 0.5)]) == [("d1", 0.9)]

    def test_tie_break_by_doc_id(self):
        assert maxp_aggregate([("d2", 0.4), ("d1", 0.4)]) == [("d1", 0.4), ("d2", 0.4)]

    def test_permutation_invariant(self):
        pairs = [("a", 0.1), ("b", 0.7), ("a", 0.5), ("c", 0.3)]
        assert maxp_aggregate(pairs) == maxp_aggregate(list(reversed(pairs)))

    def test_empty(self):
        assert maxp_aggregate([]) == []


class TestPersistence:
    def test_round_trip_search_identical(self, tmp_path):
        rng = np.random.default_rng(26)
        embeddings = random_embeddings(rng, 30, 8)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=8, seed=33))
        save_dense_index(index, tmp_path / "idx")
        loaded = load_dense_index(tmp_path / "idx")
        query = unit_rows(rng.standard_normal((3, 8)))
        assert search_dense(index, query) == search_dense(loaded, query)

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(28)
        embeddings = random_embeddings(rng, 20, 8)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=35))
        save_dense_index(index, tmp_path / "one")
        save_dense_index(index, tmp_path / "two")
        for path in sorted((tmp_path / "one").iterdir()):
            assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()

    @pytest.mark.parametrize("separator", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_keys_with_other_line_breaks_round_trip(self, tmp_path, separator):
        rng = np.random.default_rng(31)
        embeddings = {f"p{i}{separator}{i}": m for i, m in enumerate(random_embeddings(rng, 10, 8).values())}
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=3))
        save_dense_index(index, tmp_path / "idx")
        loaded = load_dense_index(tmp_path / "idx")
        assert loaded.keys == list(embeddings)
        query = unit_rows(rng.standard_normal((3, 8)))
        assert search_dense(loaded, query) == search_dense(index, query)

    def test_key_with_line_feed_is_refused(self, tmp_path):
        rng = np.random.default_rng(32)
        embeddings = random_embeddings(rng, 10, 8)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=3))
        with pytest.raises(ValidationError, match="line feed"):
            build_dense_index({"bad\nkey": embeddings["p0000"], **embeddings}, DenseIndexParams(num_centroids=4))
        index.keys[3] = "p\n3"
        with pytest.raises(ValidationError, match="line feed"):
            save_dense_index(index, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_load_rejects_alien_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_dense_index(tmp_path)

    @pytest.mark.parametrize("bad_id", [-1, 8, 1000])
    def test_load_rejects_centroid_id_out_of_range(self, tmp_path, bad_id):
        rng = np.random.default_rng(29)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=8, seed=3))
        save_dense_index(index, tmp_path / "idx")
        ids = np.load(tmp_path / "idx" / "centroid_ids.npy")
        ids[len(ids) // 2] = bad_id
        np.save(tmp_path / "idx" / "centroid_ids.npy", ids)
        with pytest.raises(FormatError, match="centroid_ids.npy"):
            load_dense_index(tmp_path / "idx")

    def test_load_rejects_malformed_meta(self, tmp_path):
        rng = np.random.default_rng(30)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4, seed=3))
        save_dense_index(index, tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.json"
        meta.write_text(meta.read_text()[:-10])
        with pytest.raises(FormatError, match="meta.json"):
            load_dense_index(tmp_path / "idx")
