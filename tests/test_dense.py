import json
import logging
import os
import re
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from xlir import dense
from xlir.dense import (
    EMBEDDING_MAGIC,
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

from tolerance import assert_ranking_within, maxsim_tolerance


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

    @pytest.mark.parametrize("value", [2.0, np.nan, np.inf], ids=["non-unit", "nan", "infinity"])
    def test_non_unit_vector_rejected(self, tmp_path, value):
        # write_embeddings refuses such a row, so the last value of a unit file is overwritten.
        path = tmp_path / "e.bin"
        write_embeddings(path, {"p0": np.full((2, 4), 0.5, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:-4] + np.float32(value).tobytes())
        norm = np.linalg.norm([0.5] * 3 + [value])
        with pytest.raises(ValidationError, match=f"passage 'p0' token 1 has norm {norm:.6f}, expected 1"):
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

    # A record's dim and token count claim 2**64 bytes (once a raw OverflowError from fh.read), or
    # 4 MiB that the file does not hold: both are refused before anything is read or allocated.
    @pytest.mark.parametrize("dim, token_count", [(2**31, 2**31), (4, 2**18)])
    def test_claimed_vectors_beyond_the_file_are_truncated(self, tmp_path, dim, token_count):
        path = tmp_path / "e.bin"
        header = EMBEDDING_MAGIC + struct.pack("<IIQ", 1, dim, 1) + struct.pack("<H", 2) + b"p0"
        path.write_bytes(header + struct.pack("<I", token_count) + np.eye(1, 4, dtype="<f4").tobytes())
        message = f"{path}: truncated embedding file while reading 'p0' vectors"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_embeddings(path)


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"bits": 0}, "bits must be in [1, 8], got 0"),
        ({"bits": 9}, "bits must be in [1, 8], got 9"),
        ({"num_centroids": 0}, "num_centroids must be >= 1, got 0"),
        ({"nprobe": 0}, "nprobe must be >= 1, got 0"),
        ({"candidate_cap": -1}, "candidate_cap must be >= 1, got -1"),
        ({"kmeans_iters": 0}, "kmeans_iters must be >= 1, got 0"),
        ({"sample_per_centroid": 0}, "sample_per_centroid must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_params_refused_when_made(changes, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        DenseIndexParams(**changes)
    # replace() makes a new set, so an override is checked the same way.
    with pytest.raises(ValidationError, match=re.escape(message)):
        replace(DenseIndexParams(), **changes)


def test_params_are_frozen():
    params = DenseIndexParams()
    with pytest.raises(FrozenInstanceError):
        params.nprobe = 0
    assert params == DenseIndexParams()


def test_default_num_centroids_heuristic():
    # 2 ** ceil(log2(16 * sqrt(T)))
    assert DenseIndexParams.default_num_centroids(1) == 16
    assert DenseIndexParams.default_num_centroids(100) == 256
    assert DenseIndexParams.default_num_centroids(10_000) == 2048


# The norm faults write_embeddings and load_embeddings both refuse, through one check.
NORM_CASES = {
    "non-unit": ({"p0": np.eye(3, 4), "p1": np.eye(2, 4) * [[1], [2]]},
                 "passage 'p1' token 1 has norm 2.000000, expected 1"),
    "nan": ({"p0": np.eye(3, 4), "p1": np.full((1, 4), np.nan)}, "passage 'p1' token 0 has norm nan, expected 1"),
    "non-unit-in-a-later-block": ({**{f"p{i:02d}": np.eye(2, 4) for i in range(70)}, "p66": np.eye(2, 4) * [[1], [3]]},
                                  "passage 'p66' token 1 has norm 3.000000, expected 1"),
    "infinity": ({"p0": np.vstack([np.eye(2, 4), [[np.inf, 0, 0, 0]]])},
                 "passage 'p0' token 2 has norm inf, expected 1"),
}


def write_raw_embeddings(path, embeddings, dim=4):
    """Write ``embeddings`` in the embedding file format with ``struct`` alone, checking nothing."""
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC + struct.pack("<IIQ", 1, dim, len(embeddings)))
        for key, matrix in embeddings.items():
            matrix, key_bytes = np.asarray(matrix, dtype="<f4"), key.encode("utf-8")
            fh.write(struct.pack("<H", len(key_bytes)) + key_bytes + struct.pack("<I", len(matrix)) + matrix.tobytes())


@pytest.mark.parametrize(
    "embeddings,message",
    [
        ({}, "no passages"),
        ({"p0": np.full(4, 0.5)},
         "passage 'p0': expected (tokens >= 1, dim) with the first passage's dim, got shape (4,)"),
        ({"p0": np.eye(2, 4), "p1": np.eye(2, 5)}, "passage 'p1': expected (tokens >= 1, dim)"),
        ({"p0": np.eye(2, 4), "p1": np.zeros((0, 4))}, "got shape (0, 4)"),
        *NORM_CASES.values(),
        ({"é" * 32768: np.eye(1, 4)}, "65536 UTF-8 bytes, at most 65535 fit"),
        ({"p0": np.eye(1, 4), "\ud800": np.eye(1, 4)}, "passage key '\\ud800': holds a lone surrogate"),
        ({"p0": np.eye(1, 4), 7: np.eye(1, 4)}, "passage key 7: expected a string"),
    ],
    ids=["empty", "one-dimensional", "dim-mismatch", "no-tokens", "non-unit", "nan", "non-unit-in-a-later-block",
         "infinity", "long-key", "lone-surrogate-key", "non-string-key"],
)
def test_write_embeddings_refuses_what_load_refuses_before_writing(tmp_path, embeddings, message):
    path = tmp_path / "e.bin"
    with pytest.raises(ValidationError, match=re.escape(message)):
        write_embeddings(path, embeddings)
    assert not path.exists()


@pytest.mark.parametrize("embeddings,message", NORM_CASES.values(), ids=NORM_CASES)
def test_load_embeddings_refuses_the_norms_write_embeddings_refuses(tmp_path, embeddings, message):
    path = tmp_path / "e.bin"
    write_raw_embeddings(path, embeddings)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
        load_embeddings(path)


def test_load_embeddings_refuses_a_truncated_record_before_any_norm(tmp_path):
    # Norms are checked once the last record parses, so a vector of norm 2 in record 0
    # does not hide that record 2 is cut short.
    path = tmp_path / "e.bin"
    write_raw_embeddings(path, {"p0": np.eye(2, 4) * 2, "p1": np.eye(2, 4), "p2": np.eye(2, 4)})
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match=re.escape(f"{path}: truncated embedding file while reading 'p2' vectors")):
        load_embeddings(path)


def test_loaded_matrices_are_aligned_writable_float32(tmp_path):
    # Keys of 1 to 5 bytes put most records' vectors at file offsets that are not a multiple of 4.
    embeddings = {"p" * n: unit_rows(np.random.default_rng(n).standard_normal((n, 4))) for n in range(1, 6)}
    path = tmp_path / "e.bin"
    write_embeddings(path, embeddings)
    loaded = load_embeddings(path)
    assert list(loaded) == list(embeddings)
    for key, matrix in loaded.items():
        assert matrix.dtype == np.float32 and matrix.flags.aligned and matrix.flags.writeable
        np.testing.assert_array_equal(matrix, embeddings[key].astype(np.float32))


def reference_kmeans(embeddings, params):
    """``train_codebook``'s seeded sample and spherical k-means, with one boolean mask per
    centroid in each iteration. Returns the float64 centroids each iteration assigns to,
    and how many times a cluster was empty."""
    tokens = np.vstack([np.asarray(m, dtype=np.float64) for m in embeddings.values()])
    k = params.num_centroids
    rng = np.random.default_rng(params.seed)
    sample = tokens[rng.permutation(len(tokens))[: min(len(tokens), params.sample_per_centroid * k)]]
    centroids = sample[rng.choice(len(sample), size=k, replace=False)].copy()
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids /= np.where(norms > 0, norms, 1.0)
    assigned_to, empty = [], 0
    for _ in range(params.kmeans_iters):
        assigned_to.append(centroids.copy())
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(k):
            members = sample[assign == c]
            if members.size == 0:
                empty += 1
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm
    assigned_to.append(centroids.astype(np.float32).astype(np.float64))  # the residual fit assigns last
    return assigned_to, empty


class TestTrainCodebook:
    @pytest.mark.parametrize("case", ["distinct", "duplicated", "blocked"])
    def test_centroids_equal_mask_per_centroid_kmeans(self, case, monkeypatch):
        # float64 vectors: float32 ones sum exactly in float64, so a mean would not
        # show the order of its members.
        rng = np.random.default_rng(12)
        embeddings = {key: unit_rows(rng.standard_normal(m.shape)) for key, m in random_embeddings(rng, 60, 8).items()}
        params = DenseIndexParams(num_centroids=12, kmeans_iters=6, sample_per_centroid=20, seed=13)
        if case == "duplicated":
            # Five distinct vectors for 12 centroids: the initial centroids repeat, and
            # a repeated centroid loses every tie, so its cluster stays empty.
            distinct = unit_rows(rng.standard_normal((5, 8)))
            embeddings = {key: distinct[rng.integers(0, 5, len(m))] for key, m in embeddings.items()}
        elif case == "blocked":
            # The 240-token sample above fits in one assignment block. This one spans
            # three, the last a one-row tail that joins the block before it.
            rows = 2 * dense._ASSIGN_BLOCK + 1
            chunks = np.array_split(unit_rows(rng.standard_normal((rows, 8))), 100)
            embeddings = {f"p{i:04d}": chunk for i, chunk in enumerate(chunks)}
            params = replace(params, sample_per_centroid=rows)
        expected, empty = reference_kmeans(embeddings, params)
        assert (empty > 0) == (case == "duplicated")
        # Compare the float64 centroids of every iteration, before rounding to float32
        # can hide a last-bit difference in a mean.
        assigned_to = []
        assign_nearest = dense._assign_nearest
        monkeypatch.setattr(
            dense, "_assign_nearest", lambda v, c_t: assigned_to.append(c_t.T.copy()) or assign_nearest(v, c_t)
        )
        codebook = train_codebook(embeddings, params)
        assert len(assigned_to) == len(expected)
        for got, want in zip(assigned_to, expected):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(codebook.centroids, expected[-1].astype(np.float32))

    def test_blocked_assignment_equals_one_product(self):
        block = dense._ASSIGN_BLOCK
        rng = np.random.default_rng(14)
        centroids_t = unit_rows(rng.standard_normal((256, 16))).T
        for n in [1, 2, block - 1, block, block + 1, 2 * block + 1]:
            vectors = unit_rows(rng.standard_normal((n, 16)))
            expected = np.argmax(vectors @ centroids_t, axis=1)
            np.testing.assert_array_equal(dense._assign_nearest(vectors, centroids_t), expected, err_msg=f"n={n}")

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
        assert cp.codes.shape == (1, 1)
        codes = np.unpackbits(cp.codes[0], count=2)
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
        bad = CompressedPassage(key=cp.key, centroid_ids=np.array([99], dtype=np.int32), codes=cp.codes)
        with pytest.raises(FormatError, match="corrupted"):
            decompress(bad, codebook)

    @pytest.mark.parametrize("change", ["one-dimensional", "wider", "extra-row", "missing-row"])
    def test_codes_of_wrong_shape(self, codebook, change):
        vectors = unit_rows(np.random.default_rng(1).standard_normal((3, 8))).astype(np.float32)
        cp = compress(vectors, codebook, key="p")
        assert cp.codes.shape == (3, 1)
        codes = {
            "one-dimensional": cp.codes.reshape(-1),
            "wider": np.hstack([cp.codes, cp.codes]),
            "extra-row": np.vstack([cp.codes, cp.codes[:1]]),
            "missing-row": cp.codes[:2],
        }[change]
        with pytest.raises(FormatError, match=r"passage 'p': expected codes of shape \(3, 1\)"):
            decompress(replace(cp, codes=codes), codebook)

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

    def test_first_search_of_a_process_leaves_numpy_ma_unimported(self, tmp_path):
        # Stage 1 once deduplicated probed centroids with np.unique, whose first call in a process
        # imports numpy.ma: about 8 ms on the first query of every `xlir search`.
        index, _ = self.build(np.random.default_rng(15))
        save_dense_index(index, tmp_path / "idx")
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from xlir.dense import load_dense_index, search_dense\n"
            f"index = load_dense_index({str(tmp_path / 'idx')!r})\n"
            "assert search_dense(index, np.eye(3, 8))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_single_centroid_degenerate_probing(self):
        rng = np.random.default_rng(14)
        index, _ = self.build(rng, num_passages=20, num_centroids=1)
        query = unit_rows(rng.standard_normal((3, 8)))
        got = search_dense(index, query)
        assert_ranking_within(got, exhaustive_search(index, query), maxsim_tolerance(index, query))

    def test_oracle_equivalence_full_probe(self):
        rng = np.random.default_rng(16)
        index, _ = self.build(rng)
        params = DenseIndexParams(num_centroids=8, nprobe=8, candidate_cap=10_000, seed=21)
        query = unit_rows(rng.standard_normal((4, 8)))
        got = search_dense(index, query, params)
        assert_ranking_within(got, exhaustive_search(index, query), maxsim_tolerance(index, query))

    def test_probed_centroids_without_passages_score_nothing(self, caplog):
        rng = np.random.default_rng(19)
        index, _ = self.build(rng, num_passages=20)
        unused = unit_rows(rng.standard_normal((1, 8))).astype(np.float32)
        codebook = replace(index.codebook, centroids=np.vstack([index.codebook.centroids, unused]))
        widened = DenseIndex(
            codebook, index.keys, np.diff(index.token_offsets), index.centroid_ids, index.codes, index.params
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
        tolerance = maxsim_tolerance(index, query)
        assert score == pytest.approx(brute_force_maxsim(query, index.decompress_passage(0)), abs=tolerance)

    @pytest.mark.parametrize(
        "query,message",
        [(np.zeros((0, 8)), "at least one token"), (np.full((2, 8), np.nan), "finite"),
         (np.vstack([np.eye(1, 8), np.full((1, 8), np.inf)]), "finite")],
        ids=["empty", "nan", "infinity"],
    )
    def test_unusable_query_rejected(self, query, message):
        rng = np.random.default_rng(20)
        index, _ = self.build(rng, num_passages=5)
        with pytest.raises(ValidationError, match=message):
            search_dense(index, query)

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

    def test_stage2_sums_centroid_maxima_as_maxsim_does(self):
        """Basis-vector query tokens read centroid coordinates as similarities. Passage a's 8
        maxima make 1.0 in numpy's pairwise sum, as ``maxsim`` adds them, and 0.0 in query
        order, below passage b's 0.5, so a cap of one keeps a only under the former."""
        centroids = np.zeros((2, 8), dtype=np.float32)
        centroids[0, :4] = [2.0**53, 1.0, 1.0, -(2.0**53)]
        centroids[1, 0] = 0.5
        codebook = ResidualCodebook(centroids, np.zeros((8, 1)), np.tile([-0.1, 0.1], (8, 1)), bits=1)
        ids, codes = np.array([0, 1], dtype=np.int32), np.zeros((2, 1), dtype=np.uint8)
        index = DenseIndex(codebook, ["a#0", "b#0"], [1, 1], ids, codes, DenseIndexParams(num_centroids=2))
        query = np.eye(8)
        assert maxsim(query, centroids[:1]) == 1.0 and maxsim(query, centroids[1:]) == 0.5
        ((key, _),) = search_dense(index, query, DenseIndexParams(nprobe=2, candidate_cap=1))
        assert key == "a#0"

    def test_deterministic_rankings(self):
        rng = np.random.default_rng(24)
        embeddings = random_embeddings(rng, 40, 8)
        params = DenseIndexParams(num_centroids=8, seed=31)
        one = build_dense_index(embeddings, params)
        two = build_dense_index(embeddings, params)
        query = unit_rows(np.random.default_rng(9).standard_normal((3, 8)))
        assert search_dense(one, query) == search_dense(two, query)


def reference_levels(row, dim, bits):
    """The levels a code row holds, read bit by bit: ``8 // bits`` dimensions to a byte,
    each level's bits most significant first."""
    row_bits = [(int(byte) >> (7 - i)) & 1 for byte in row for i in range(8)]
    per = 8 // bits
    levels = []
    for d in range(dim):
        start = 8 * (d // per) + bits * (d % per)
        levels.append(int("".join(str(b) for b in row_bits[start : start + bits]), 2))
    return levels


def reference_code_row(levels, bits):
    """A code row written bit by bit: ``8 // bits`` levels to a byte, each level's bits
    most significant first, and zero bits after them."""
    per = 8 // bits
    row = []
    for first in range(0, len(levels), per):
        byte_bits = "".join(format(level, f"0{bits}b") for level in levels[first : first + per])
        row.append(int(byte_bits.ljust(8, "0"), 2))
    return row


def reference_decompress(index, ordinal):
    """Passage ``ordinal`` decoded token by token from its code rows, with no shared code."""
    dim = index.codebook.dim
    t0, t1 = index.token_offsets[ordinal : ordinal + 2]
    rows = []
    for cid, row in zip(index.centroid_ids[t0:t1], index.codes[t0:t1]):
        levels = reference_levels(row, dim, index.codebook.bits)
        rows.append(
            [float(index.codebook.centroids[cid, d]) + float(index.codebook.values[d, levels[d]]) for d in range(dim)]
        )
    return np.array(rows, dtype=np.float64).reshape(-1, dim).astype(np.float32)


def reference_token_levels(index, embeddings):
    """Each token's residual levels in index order: the number of bucket boundaries at or
    below each residual component, against the centroid ``compress`` assigns."""
    levels = []
    for key in index.keys:
        ids = compress(embeddings[key], index.codebook).centroid_ids
        for vector, cid in zip(embeddings[key], ids):
            residual = [float(v) - float(c) for v, c in zip(vector, index.codebook.centroids[cid])]
            levels.append([int((index.codebook.boundaries[d] <= r).sum()) for d, r in enumerate(residual)])
    return levels


def reference_stage3_score(index, query, centroid_sims, ordinal):
    """Passage ``ordinal``'s score in the float order ``search_dense`` documents, token by
    token: the centroid similarity plus each code byte's entry (its dimensions' products
    in order) left to right, the max over tokens, then a sum over query tokens in order."""
    dim, bits = index.codebook.dim, index.codebook.bits
    per = 8 // bits
    t0, t1 = index.token_offsets[ordinal : ordinal + 2]
    rows = zip(index.centroid_ids[t0:t1], index.codes[t0:t1])
    tokens = [(int(cid), reference_levels(row, dim, bits)) for cid, row in rows]
    total = 0.0
    for q, vector in enumerate(query.tolist()):
        best = -np.inf
        for cid, levels in tokens:
            score = float(centroid_sims[q, cid])
            for first in range(0, dim, per):
                entry = 0.0
                for d in range(first, min(first + per, dim)):
                    entry += vector[d] * float(index.codebook.values[d, levels[d]])
                score += entry
            best = max(best, score)
        total += best
    return total


def flat_layout_index(dim, bits):
    """More passages than one scoring block, short enough to tie often on centroid
    scores, with keys inserted in shuffled order, which the build lays out in key order."""
    rng = np.random.default_rng(40)
    embeddings = random_embeddings(rng, 150, dim, min_tokens=1, max_tokens=4)
    keys = list(embeddings)
    embeddings = {keys[i]: embeddings[keys[i]] for i in rng.permutation(len(keys))}
    index = build_dense_index(embeddings, DenseIndexParams(bits=bits, num_centroids=16, kmeans_iters=5, seed=41))
    assert len(index) > dense._SCORE_BLOCK and (np.diff(index.token_offsets) == 1).any()
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
            got = search_dense(index, query, params)
            assert_ranking_within(got, expected, maxsim_tolerance(index, query))
            assert search_dense(loaded, query, params) == got
    assert cut >= 16


# (dim, bits): whole-byte codes (16, 1), (8, 1) and (8, 8); rows that end in pad bits
# (5, 3) and (7, 2); one dimension per byte (6, 5).
CODE_GRID = [(16, 1), (8, 1), (5, 3), (7, 2), (6, 5), (8, 8)]


class TestFlatLayout:
    @pytest.fixture
    def built(self):
        return flat_layout_index(8, 1)

    # (dim, bits): rows that end in pad bits, and whole-byte codes.
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

    def test_distinct_map_lists_centroids_per_passage(self, built, tmp_path):
        index, embeddings = built
        save_dense_index(index, tmp_path / "idx")
        loaded = load_dense_index(tmp_path / "idx")
        repeats = 0
        for ordinal, key in enumerate(index.keys):
            ids = compress(embeddings[key], index.codebook).centroid_ids
            repeats += len(np.unique(ids)) < len(ids)
            for idx in (index, loaded):
                start, end = idx.distinct_offsets[ordinal : ordinal + 2]
                assert idx.distinct_centroids[start:end].tolist() == sorted(set(ids.tolist()))
        assert repeats > 0
        assert index.distinct_offsets[-1] == index.distinct_centroids.size == index.inverted_passages.size
        assert index.distinct_centroids.dtype == index.centroid_ids.dtype

    def test_staged_search_equals_per_passage_reference(self, built, tmp_path):
        assert_staged_search_equals_reference(*built, tmp_path)

    def test_staged_search_equals_per_passage_reference_for_multi_bit_codes(self, coded, tmp_path):
        assert_staged_search_equals_reference(*coded, tmp_path)

    @pytest.mark.parametrize("dim, bits", CODE_GRID)
    def test_codes_are_rows_of_residual_levels(self, dim, bits, tmp_path):
        index, embeddings = flat_layout_index(dim, bits)
        levels = reference_token_levels(index, embeddings)
        np.testing.assert_array_equal(index.codes, [reference_code_row(row, bits) for row in levels])
        assert index.codes.dtype == np.uint8 and index.codes.shape == (len(levels), -(-dim // (8 // bits)))
        save_dense_index(index, tmp_path / "idx")
        assert sorted(path.name for path in (tmp_path / "idx").iterdir() if path.suffix == ".npy") == [
            "bucket_boundaries.npy",
            "bucket_values.npy",
            "centroid_ids.npy",
            "centroids.npy",
            "codes.npy",
            "token_counts.npy",
        ]
        np.testing.assert_array_equal(load_dense_index(tmp_path / "idx").codes, index.codes)
        if 8 % bits == 0 and dim % (8 // bits) == 0:
            # No pad bits: the rows hold the one bit stream of every level, in token order.
            stream = [int(c) for row in levels for level in row for c in format(level, f"0{bits}b")]
            assert index.codes.tobytes() == np.packbits(stream).tobytes()

    @pytest.mark.parametrize("dim, bits", CODE_GRID)
    def test_block_decoder_equals_per_passage_decoding(self, dim, bits):
        index, _ = flat_layout_index(dim, bits)
        for ordinal in np.random.default_rng(43).permutation(len(index)):
            np.testing.assert_array_equal(index.decompress_passage(ordinal), reference_decompress(index, ordinal))
        every = dense._decode(index.codebook, index.centroid_ids, index.codes)
        np.testing.assert_array_equal(every, np.vstack([reference_decompress(index, i) for i in range(len(index))]))

    @pytest.mark.parametrize("dim, bits", CODE_GRID)
    def test_stage3_scores_equal_maxsim_on_decompressed_passages(self, dim, bits, tmp_path):
        index, _ = flat_layout_index(dim, bits)
        save_dense_index(index, tmp_path / "idx")
        loaded = load_dense_index(tmp_path / "idx")
        params = DenseIndexParams(nprobe=16, candidate_cap=1000)
        rng = np.random.default_rng(46)
        for tokens in (1, 3, 12):
            query = unit_rows(rng.standard_normal((tokens, dim)))
            expected = sorted(
                ((key, maxsim(query, index.decompress_passage(i))) for i, key in enumerate(index.keys)),
                key=lambda entry: (-entry[1], entry[0]),
            )
            got = search_dense(index, query, params)
            assert_ranking_within(got, expected, maxsim_tolerance(index, query))
            assert search_dense(loaded, query, params) == got

    @pytest.mark.parametrize("dim, bits", CODE_GRID)
    def test_staged_search_equals_reference_in_documented_float_order(self, dim, bits):
        """Bit for bit: stage 2 keeps the ``candidate_cap`` best candidates by their centroid
        maxima summed as ``maxsim`` sums, ties by key, and stage 3 scores the survivors in the
        order of ``reference_stage3_score``. From 8 query tokens numpy sums a contiguous vector
        pairwise, which parts from a sum in query order; a single survivor is such a vector.
        Random queries almost never bring two candidates within a rounding of each other, so
        ``TestSearch.test_stage2_sums_centroid_maxima_as_maxsim_does`` pins stage 2's sum."""
        index, _ = flat_layout_index(dim, bits)
        rng = np.random.default_rng(47)
        tie_cuts = 0
        for tokens, nprobe in [(1, 2), (5, 1), (8, 16), (13, 3)]:
            query = unit_rows(rng.standard_normal((tokens, dim)))
            centroid_sims = query @ index.codebook.centroids.astype(np.float64).T
            probed = np.argsort(-centroid_sims, axis=1, kind="stable")[:, :nprobe]
            approx = []
            for ordinal, key in enumerate(index.keys):
                ids = index.centroid_ids[index.token_offsets[ordinal] : index.token_offsets[ordinal + 1]]
                if np.isin(ids, probed).any():
                    approx.append((-float(centroid_sims[:, ids].max(axis=1).sum()), key, ordinal))
            approx.sort()
            exact = {ordinal: reference_stage3_score(index, query, centroid_sims, ordinal) for _, _, ordinal in approx}
            # Every cap that falls inside a run of equal centroid scores, one survivor, and no cap.
            caps = [cap for cap in range(1, len(approx)) if approx[cap - 1][0] == approx[cap][0]]
            tie_cuts += len(caps)
            for cap in [*caps, 1, len(index)]:
                expected = sorted((-exact[ordinal], key) for _, key, ordinal in approx[:cap])
                got = search_dense(index, query, DenseIndexParams(nprobe=nprobe, candidate_cap=cap))
                assert got == [(key, -score) for score, key in expected]
        assert tie_cuts >= 3

    def test_stage3_scores_equal_maxsim_on_decompressed_passages_at_dim_128(self):
        rng = np.random.default_rng(44)
        embeddings = random_embeddings(rng, 200, 128, min_tokens=1, max_tokens=12)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=16, kmeans_iters=3, seed=45))
        params = DenseIndexParams(nprobe=16, candidate_cap=1000)
        for _ in range(3):
            query = unit_rows(rng.standard_normal((32, 128)))
            expected, _ = per_passage_search(index, embeddings, query, params)
            assert len(expected) == len(index) > dense._SCORE_BLOCK
            assert_ranking_within(search_dense(index, query, params), expected, maxsim_tolerance(index, query))


class TestNarrowIds:
    """Centroid ids take the narrowest unsigned dtype that holds ``num_centroids - 1``."""

    @pytest.mark.parametrize("k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_id_dtype_after_build_and_load_and_search_equals_int64_ids(self, tmp_path, k, dtype):
        rng = np.random.default_rng(40)
        embeddings = random_embeddings(rng, 120, 8, min_tokens=4)
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=k, kmeans_iters=2, seed=5))
        save_dense_index(index, tmp_path / "idx")
        loaded = load_dense_index(tmp_path / "idx")
        assert index.centroid_ids.dtype == loaded.centroid_ids.dtype == dtype
        assert np.load(tmp_path / "idx" / "token_counts.npy").dtype == np.int32
        assert int(index.centroid_ids.max()) == k - 1  # the largest id is in use
        wide = DenseIndex(
            index.codebook, index.keys, np.diff(index.token_offsets), index.centroid_ids.astype(np.int64),
            index.codes, index.params,
        )
        for cap in (2500, 20):
            params = replace(index.params, nprobe=4, candidate_cap=cap)
            for _ in range(3):
                query = unit_rows(rng.standard_normal((5, 8)))
                expected = search_dense(wide, query, params)
                assert search_dense(index, query, params) == search_dense(loaded, query, params) == expected

    def test_compress_uses_the_narrow_dtype(self):
        embeddings = random_embeddings(np.random.default_rng(41), 40, 8)
        codebook = train_codebook(embeddings, DenseIndexParams(num_centroids=8, seed=2))
        assert compress(embeddings["p0000"], codebook).centroid_ids.dtype == np.uint8


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

    @pytest.mark.parametrize(
        "moves, problem",
        [({3: 4, 4: 3}, "passage key 'p0003' out of order after 'p0004'"), ({4: 3}, "duplicate passage key 'p0003'")],
        ids=["swapped", "repeated"],
    )
    def test_save_refuses_keys_load_would_refuse(self, tmp_path, moves, problem):
        rng = np.random.default_rng(32)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4, seed=3))
        keys = list(index.keys)
        for target, source in moves.items():
            index.keys[target] = keys[source]
        with pytest.raises(ValidationError, match=re.escape(problem)):
            save_dense_index(index, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_alien_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_dense_index(tmp_path)

    @pytest.mark.parametrize("bad_id", [-1, 8, 255, 1000])
    def test_load_rejects_centroid_id_out_of_range(self, tmp_path, bad_id):
        rng = np.random.default_rng(29)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=8, seed=3))
        save_dense_index(index, tmp_path / "idx")
        ids = np.load(tmp_path / "idx" / "centroid_ids.npy")
        assert ids.dtype == np.uint8
        if not 0 <= bad_id <= 255:  # written as int64, as uint8 cannot hold it
            ids = ids.astype(np.int64)
        ids[len(ids) // 2] = bad_id
        np.save(tmp_path / "idx" / "centroid_ids.npy", ids)
        with pytest.raises(FormatError, match="centroid_ids.npy"):
            load_dense_index(tmp_path / "idx")

    @pytest.mark.parametrize("bad_id, dtype", [(259, np.int64), (-1, np.int64), (4, np.uint8), (1.0, np.float64)])
    def test_direct_construction_refuses_centroid_ids_not_integers_in_range(self, bad_id, dtype):
        # An id of K or more would count as the next passage's in the centroid maps, and 259 at
        # 4 centroids indexes past the codebook at search.
        rng = np.random.default_rng(29)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4, seed=3))
        ids = index.centroid_ids.astype(dtype)
        ids[len(ids) // 2] = bad_id
        counts = np.diff(index.token_offsets)
        with pytest.raises(ValidationError, match=re.escape("centroid ids must be integers in [0, 4)")):
            DenseIndex(index.codebook, index.keys, counts, ids, index.codes, index.params)

    def test_lone_surrogate_key_is_refused_before_any_file(self, tmp_path):
        # keys.txt is UTF-8, which cannot hold a lone surrogate; it is refused before meta.json is written.
        rng = np.random.default_rng(32)
        embeddings = random_embeddings(rng, 10, 8)
        message = "passage key 'p9\\ud800': holds a lone surrogate, which UTF-8 cannot encode"
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_dense_index({**embeddings, "p9\ud800": embeddings["p0000"]}, DenseIndexParams(num_centroids=4))
        index = build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=3))
        index.keys[-1] = "p9\ud800"
        with pytest.raises(ValidationError, match=re.escape(message)):
            save_dense_index(index, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_index_written_with_wide_arrays_loads_and_searches_the_same(self, tmp_path):
        # The version-3 layout as written before ids were narrowed: int32 ids, int64 counts. Both
        # directories load into the one in-memory layout, uint8 ids for 8 centroids.
        rng = np.random.default_rng(38)
        index = build_dense_index(random_embeddings(rng, 60, 8), DenseIndexParams(num_centroids=8, seed=3))
        save_dense_index(index, tmp_path / "narrow")
        save_dense_index(index, tmp_path / "wide")
        wide = tmp_path / "wide"
        np.save(wide / "centroid_ids.npy", np.load(wide / "centroid_ids.npy").astype(np.int32))
        np.save(wide / "token_counts.npy", np.load(wide / "token_counts.npy").astype(np.int64))
        narrow, wide = load_dense_index(tmp_path / "narrow"), load_dense_index(wide)
        assert (narrow.centroid_ids.dtype, wide.centroid_ids.dtype) == (np.uint8, np.uint8)
        assert np.array_equal(wide.centroid_ids, narrow.centroid_ids)
        assert np.array_equal(wide.distinct_centroids, narrow.distinct_centroids)
        for cap in (2500, 10):
            params = replace(index.params, candidate_cap=cap)
            for _ in range(5):
                query = unit_rows(rng.standard_normal((4, 8)))
                assert search_dense(wide, query, params) == search_dense(narrow, query, params)

    def test_load_rejects_malformed_meta(self, tmp_path):
        rng = np.random.default_rng(30)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4, seed=3))
        save_dense_index(index, tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.json"
        meta.write_text(meta.read_text()[:-10])
        with pytest.raises(FormatError, match="meta.json"):
            load_dense_index(tmp_path / "idx")

    def saved(self, tmp_path, seed=34):
        rng = np.random.default_rng(seed)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4, seed=3))
        save_dense_index(index, tmp_path / "idx")
        return tmp_path / "idx"

    def test_load_rejects_version_1_directory(self, tmp_path):
        path = self.saved(tmp_path)
        # Version 1 kept the codes as one bit stream, each passage padded to a byte.
        np.save(path / "packed_codes.npy", np.load(path / "codes.npy").reshape(-1))
        (path / "codes.npy").unlink()
        meta = json.loads((path / "meta.json").read_text())
        (path / "meta.json").write_text(json.dumps({**meta, "version": 1}))
        with pytest.raises(FormatError, match="unsupported index format 'xlir-dense-index' v1"):
            load_dense_index(path)

    @pytest.mark.parametrize("change", ["one-dimensional", "wrong-width", "int16", "short"])
    def test_load_rejects_malformed_codes(self, tmp_path, change):
        path = self.saved(tmp_path)
        codes = np.load(path / "codes.npy")
        assert codes.shape[1] == 1
        edited = {
            "one-dimensional": codes.reshape(-1),
            "wrong-width": np.hstack([codes, codes]),
            "int16": codes.astype(np.int16),
            "short": codes[:-1],
        }[change]
        np.save(path / "codes.npy", edited)
        with pytest.raises(FormatError, match="codes"):
            load_dense_index(path)

    def move_keys(self, path, moves):
        """Rewrite keys.txt with ``keys[target] = keys[source]`` for each ``target: source`` of ``moves``."""
        keys = (path / "keys.txt").read_text().split("\n")
        edited = list(keys)
        for target, source in moves.items():
            edited[target] = keys[source]
        (path / "keys.txt").write_text("\n".join(edited))

    def test_load_rejects_duplicate_keys(self, tmp_path):
        # A key repeated by its neighbour is a duplicate; one repeated further on first
        # breaks the order, where it follows a greater key.
        for target, problem in [(3, "duplicate passage key 'p0002'"), (7, "passage key 'p0002' out of order after 'p0006'")]:
            path = self.saved(tmp_path / str(target))
            self.move_keys(path, {target: 2})
            with pytest.raises(FormatError, match=re.escape(f"{path}: {problem}")):
                load_dense_index(path)

    def test_load_rejects_swapped_keys(self, tmp_path):
        path = self.saved(tmp_path)
        self.move_keys(path, {4: 5, 5: 4})
        with pytest.raises(FormatError, match=re.escape(f"{path}: passage key 'p0004' out of order after 'p0005'")):
            load_dense_index(path)

    def test_load_rejects_version_2_directory(self, tmp_path):
        # Version 2 had the same files, with passages in embedding-file order.
        path = self.saved(tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        (path / "meta.json").write_text(json.dumps({**meta, "version": 2}))
        with pytest.raises(FormatError, match="unsupported index format 'xlir-dense-index' v2"):
            load_dense_index(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["centroids", "boundaries", "values"])
    def test_load_rejects_non_finite_codebook(self, tmp_path, name, value):
        path = self.saved(tmp_path)
        array_path = path / {"centroids": "centroids.npy"}.get(name, f"bucket_{name}.npy")
        array = np.load(array_path)
        array.flat[3] = value
        np.save(array_path, array)
        with pytest.raises(FormatError, match=re.escape(f"{array_path}: codebook {name} must be finite")):
            load_dense_index(path)

    def test_load_rejects_decreasing_bucket_values(self, tmp_path):
        path = self.saved(tmp_path)
        values = np.load(path / "bucket_values.npy")
        np.save(path / "bucket_values.npy", values[:, ::-1])
        with pytest.raises(FormatError, match=re.escape(f"{path}/bucket_values.npy: bucket reconstruction values")):
            load_dense_index(path)

    def test_load_rejects_zero_token_count(self, tmp_path):
        # Passage 0's tokens counted with passage 1's: every array keeps its size.
        path = self.saved(tmp_path)
        counts = np.load(path / "token_counts.npy")
        counts[1] += counts[0]
        counts[0] = 0
        np.save(path / "token_counts.npy", counts)
        with pytest.raises(FormatError, match=re.escape(f"{path}/token_counts.npy: token counts must be positive")):
            load_dense_index(path)

    def test_load_rejects_unsigned_token_count_that_wraps(self, tmp_path):
        # 2**64 - 1 tokens in passage 0 and one more in passage 1 keep the unsigned total;
        # as int64 the first count would be -1.
        path = self.saved(tmp_path)
        counts = np.load(path / "token_counts.npy").astype(np.uint64)
        counts[1] += counts[0] + np.uint64(1)
        counts[0] = np.iinfo(np.uint64).max
        np.save(path / "token_counts.npy", counts)
        with pytest.raises(FormatError, match=re.escape(f"{path}/token_counts.npy: a token count exceeds the")):
            load_dense_index(path)

    def test_save_logs_the_bytes_of_the_arrays_written(self, tmp_path, caplog):
        rng = np.random.default_rng(37)
        index = build_dense_index(random_embeddings(rng, 10, 8), DenseIndexParams(num_centroids=4))
        with caplog.at_level(logging.INFO, logger="xlir.dense"):
            save_dense_index(index, tmp_path / "idx")
        (event,) = [m for m in caplog.messages if m.startswith("event=dense_index_save ")]
        written = [np.load(path) for path in (tmp_path / "idx").glob("*.npy")]
        size, tokens = sum(array.nbytes for array in written), len(index.centroid_ids)
        assert len(written) == 6
        assert event == f"event=dense_index_save bytes={size} tokens={tokens} bytes_per_token={size / tokens:.3f}"

    def test_build_lays_passages_out_in_key_order(self):
        rng = np.random.default_rng(36)
        # Keys whose code-point order is neither insertion nor numeric order.
        embeddings = {f"{'Zaé'[i % 3]}{i}": m for i, m in enumerate(random_embeddings(rng, 30, 8).values())}
        keys = list(embeddings)
        shuffled = {keys[i]: embeddings[keys[i]] for i in rng.permutation(len(keys))}
        params = DenseIndexParams(num_centroids=8, kmeans_iters=5, seed=3)
        index = build_dense_index(shuffled, params)
        assert index.keys == sorted(keys) != list(shuffled)
        # The codebook is trained on the embeddings in the caller's order.
        trained = train_codebook(shuffled, params)
        for name in ("centroids", "boundaries", "values"):
            np.testing.assert_array_equal(getattr(index.codebook, name), getattr(trained, name))
        for ordinal, key in enumerate(index.keys):
            expected = compress(shuffled[key], index.codebook)
            t0, t1 = index.token_offsets[ordinal : ordinal + 2]
            np.testing.assert_array_equal(index.centroid_ids[t0:t1], expected.centroid_ids)
            np.testing.assert_array_equal(index.codes[t0:t1], expected.codes)

    def test_build_rejects_passage_without_tokens(self):
        embeddings = random_embeddings(np.random.default_rng(35), 10, 8)
        embeddings["p0003"] = np.zeros((0, 8), dtype=np.float32)
        with pytest.raises(ValidationError, match="passage 'p0003' has no tokens"):
            build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=3))

    def test_build_rejects_passages_of_different_dims(self):
        # np.vstack once refused them while training, with a ValueError naming no passage.
        embeddings = random_embeddings(np.random.default_rng(35), 10, 8)
        embeddings["p0003"] = unit_rows(np.ones((3, 6)))
        message = "passage 'p0003': vector shape (6,), the first's is (8,)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_dense_index(embeddings, DenseIndexParams(num_centroids=4, seed=3))
