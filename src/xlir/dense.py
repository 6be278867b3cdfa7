"""Late-interaction dense retrieval over compressed token embeddings.

Every passage is a matrix of unit-normalized token vectors. Indexing trains a
centroid codebook with spherical k-means, stores each token as its nearest
centroid id plus a b-bit-per-dimension quantized residual, and builds an
inverted map from centroid id to the passages containing it. Search runs in
three stages: centroid probing per query token to collect candidate passages,
ranking candidates by a centroid-only approximation of MaxSim, then exact
MaxSim over decompressed token vectors for the surviving candidates. The last
stage decodes survivors in blocks and scores each passage with its own matrix
product, which keeps scores bit-identical (see ``search_dense``).

Embedding file format (all integers little-endian):

    magic    5 bytes   b"LIEMB"
    version  u32       currently 1
    dim      u32
    count    u64       number of passages
    per passage: key_len u16, key bytes (UTF-8), token_count u32,
                 token_count * dim float32 values (row-major)

Index directory layout: ``meta.json`` (format, version, parameters),
``centroids.npy``, ``bucket_boundaries.npy``, ``bucket_values.npy``,
``keys.txt`` (one passage key per line), ``token_counts.npy``,
``centroid_ids.npy`` (concatenated per passage), ``packed_codes.npy``
(per-passage bit-packed residual codes, each passage padded to a byte
boundary and concatenated). A loaded ``DenseIndex`` keeps these arrays as
they are on disk; only the offsets into them and the inverted map are
derived, once, when the index is built or loaded.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import time
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, load_array, malformed
from .shards import _best_per_id

logger = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"LIEMB"
EMBEDDING_VERSION = 1
NORM_TOLERANCE = 1e-4

INDEX_FORMAT = "xlir-dense-index"
INDEX_VERSION = 1

# Mapping from passage key to (token_count, dim) float32 matrix.
TokenEmbeddings = dict[str, np.ndarray]


@dataclass
class DenseIndexParams:
    """Indexing and search parameters.

    ``num_centroids`` of ``None`` selects ``2 ** ceil(log2(16 * sqrt(T)))``
    for T total tokens at training time. ``candidate_cap`` bounds how many
    candidate passages are fully scored per query.
    """

    bits: int = 1
    num_centroids: int | None = None
    nprobe: int = 4
    candidate_cap: int = 2500
    kmeans_iters: int = 20
    sample_per_centroid: int = 256
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.bits <= 8:
            raise ValidationError(f"bits must be in [1, 8], got {self.bits}")
        if self.num_centroids is not None and self.num_centroids < 1:
            raise ValidationError(f"num_centroids must be >= 1, got {self.num_centroids}")
        if self.nprobe < 1:
            raise ValidationError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.candidate_cap < 1:
            raise ValidationError(f"candidate_cap must be >= 1, got {self.candidate_cap}")
        if self.kmeans_iters < 1:
            raise ValidationError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")

    @staticmethod
    def default_num_centroids(total_tokens: int) -> int:
        return 2 ** math.ceil(math.log2(16.0 * math.sqrt(total_tokens)))


def write_embeddings(path: str | Path, embeddings: Mapping[str, np.ndarray]) -> None:
    """Write passage token matrices in the binary embedding format."""
    items = list(embeddings.items())
    if not items:
        raise ValidationError("refusing to write an embedding file with no passages")
    dim = int(items[0][1].shape[1])
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<IIQ", EMBEDDING_VERSION, dim, len(items)))
        for key, matrix in items:
            matrix = np.asarray(matrix, dtype=np.float32)
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                raise ValidationError(f"passage {key!r}: expected shape (*, {dim}), got {matrix.shape}")
            key_bytes = key.encode("utf-8")
            fh.write(struct.pack("<H", len(key_bytes)))
            fh.write(key_bytes)
            fh.write(struct.pack("<I", matrix.shape[0]))
            fh.write(matrix.astype("<f4").tobytes(order="C"))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{fh.name}: truncated embedding file while reading {what}")
    return data


def load_embeddings(path: str | Path) -> TokenEmbeddings:
    """Read an embedding file, validating the header and per-vector norms."""
    embeddings: TokenEmbeddings = {}
    with open(path, "rb") as fh:
        magic = fh.read(len(EMBEDDING_MAGIC))
        if magic != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")
        version, dim, count = struct.unpack("<IIQ", _read_exact(fh, 16, "header"))
        if version != EMBEDDING_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim < 1:
            raise FormatError(f"{path}: non-positive dimension {dim}")
        for i in range(count):
            (key_len,) = struct.unpack("<H", _read_exact(fh, 2, f"record {i} key length"))
            try:
                key = _read_exact(fh, key_len, f"record {i} key").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: record {i} key is not UTF-8 ({exc.reason})") from None
            (token_count,) = struct.unpack("<I", _read_exact(fh, 4, f"{key!r} token count"))
            if token_count == 0:
                raise ValidationError(f"{path}: passage {key!r} has no tokens")
            raw = _read_exact(fh, token_count * dim * 4, f"{key!r} vectors")
            matrix = np.frombuffer(raw, dtype="<f4").reshape(token_count, dim).copy()
            norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
            bad = np.abs(norms - 1.0) > NORM_TOLERANCE
            if bad.any():
                j = int(np.argmax(bad))
                raise ValidationError(
                    f"{path}: passage {key!r} token {j} has norm {norms[j]:.6f}, expected 1"
                )
            if key in embeddings:
                raise ValidationError(f"{path}: duplicate passage key {key!r}")
            embeddings[key] = matrix
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {count} records")
    return embeddings


@dataclass
class ResidualCodebook:
    """Centroids plus per-dimension residual quantization buckets.

    ``boundaries[d]`` holds the 2**bits - 1 bucket cut points of dimension
    ``d`` and ``values[d]`` the 2**bits reconstruction values, strictly
    increasing. With 1 bit the single boundary sits at zero and the values
    are the mean negative and mean non-negative training residuals.
    """

    centroids: np.ndarray  # (K, dim) float32, unit rows
    boundaries: np.ndarray  # (dim, 2**bits - 1) float64
    values: np.ndarray  # (dim, 2**bits) float64
    bits: int

    @property
    def num_centroids(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    def validate(self) -> None:
        levels = 2**self.bits
        if self.boundaries.shape != (self.dim, levels - 1):
            raise ValidationError(f"boundaries shape {self.boundaries.shape} != {(self.dim, levels - 1)}")
        if self.values.shape != (self.dim, levels):
            raise ValidationError(f"values shape {self.values.shape} != {(self.dim, levels)}")
        if not (np.diff(self.values, axis=1) > 0).all():
            raise ValidationError("bucket reconstruction values must be strictly increasing per dimension")


@dataclass
class CompressedPassage:
    key: str
    centroid_ids: np.ndarray  # (num_tokens,) int32
    packed_codes: np.ndarray  # (ceil(num_tokens * dim * bits / 8),) uint8
    num_tokens: int


def _stack_tokens(embeddings: Mapping[str, np.ndarray]) -> np.ndarray:
    matrices = [np.asarray(m, dtype=np.float64) for m in embeddings.values()]
    if not matrices:
        raise ValidationError("no embeddings to train on")
    return np.vstack(matrices)


def _bucketize(residuals: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    # searchsorted(side="right") per dimension: count of boundaries <= r.
    return (residuals[:, :, None] >= boundaries[None, :, :]).sum(axis=2).astype(np.uint8)


_ASSIGN_BLOCK = 16384
_DECODE_BLOCK = 128


def _assign_nearest(vectors: np.ndarray, centroids_t: np.ndarray) -> np.ndarray:
    """Argmax dot-product assignment, blocked to bound peak memory."""
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], _ASSIGN_BLOCK):
        block = vectors[start : start + _ASSIGN_BLOCK]
        out[start : start + _ASSIGN_BLOCK] = np.argmax(block @ centroids_t, axis=1)
    return out


def _bucket_stats(residuals: np.ndarray, boundaries: np.ndarray, bits: int) -> np.ndarray:
    """Per-dimension reconstruction values: mean residual per bucket.

    Empty buckets fall back to the bucket midpoint, with the unbounded outer
    edges clipped to the observed residual range extended by one span.
    """
    dim = residuals.shape[1]
    levels = 2**bits
    codes = _bucketize(residuals, boundaries)
    values = np.empty((dim, levels), dtype=np.float64)
    for d in range(dim):
        col = residuals[:, d]
        r_min, r_max = float(col.min()), float(col.max())
        span = max(r_max - r_min, 1e-6)
        edges = np.concatenate(([r_min - span], boundaries[d], [r_max + span]))
        for level in range(levels):
            members = col[codes[:, d] == level]
            if members.size:
                values[d, level] = members.mean()
            else:
                values[d, level] = 0.5 * (edges[level] + edges[level + 1])
    return values


def train_codebook(
    embeddings: Mapping[str, np.ndarray], params: DenseIndexParams | None = None
) -> ResidualCodebook:
    """Spherical k-means over a seeded token sample plus residual bucket fitting.

    Centroids are renormalized to unit length after every update; empty
    clusters keep their previous centroid. Residual buckets are fit on the
    same sample: boundaries at empirical quantiles (fixed at zero for 1 bit)
    and reconstruction values at within-bucket means.
    """
    params = params if params is not None else DenseIndexParams()
    params.validate()
    tokens = _stack_tokens(embeddings)
    total = tokens.shape[0]
    k = params.num_centroids or DenseIndexParams.default_num_centroids(total)
    if total < k:
        raise ValidationError(
            f"{total} training tokens for {k} centroids; set num_centroids <= {total}"
        )
    rng = np.random.default_rng(params.seed)
    sample_size = min(total, params.sample_per_centroid * k)
    sample = tokens[rng.permutation(total)[:sample_size]]

    centroids = sample[rng.choice(sample_size, size=k, replace=False)].copy()
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids /= np.where(norms > 0, norms, 1.0)
    for _ in range(params.kmeans_iters):
        assign = _assign_nearest(sample, centroids.T)
        for c in range(k):
            members = sample[assign == c]
            if members.size == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm

    # Fit residual buckets against the rounded centroids compression will use.
    stored = centroids.astype(np.float32)
    assign = _assign_nearest(sample, stored.astype(np.float64).T)
    residuals = sample - stored.astype(np.float64)[assign]
    levels = 2**params.bits
    if params.bits == 1:
        boundaries = np.zeros((tokens.shape[1], 1), dtype=np.float64)
    else:
        quantiles = np.arange(1, levels) / levels
        boundaries = np.quantile(residuals, quantiles, axis=0).T
    values = _bucket_stats(residuals, boundaries, params.bits)

    codebook = ResidualCodebook(
        centroids=stored,
        boundaries=boundaries,
        values=values,
        bits=params.bits,
    )
    codebook.validate()
    return codebook


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint8)
    bitstream = ((codes[:, :, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bitstream)


def _decode(codebook: ResidualCodebook, token_counts, centroid_ids, packed_codes) -> np.ndarray:
    """Token vectors of passages with ``token_counts`` tokens, whose centroid ids and
    byte-padded residual codes are concatenated in ``centroid_ids`` and ``packed_codes``:
    each the float64 sum of its centroid and bucket values, rounded to float32."""
    dim, bits = codebook.dim, codebook.bits
    stream = np.unpackbits(packed_codes)
    if dim * bits % 8:  # drop the pad bits that end each passage
        kept = token_counts * (dim * bits)
        padded = (kept + 7) // 8 * 8
        within = np.arange(stream.size) - np.repeat(np.cumsum(padded) - padded, padded)
        stream = stream[within < np.repeat(kept, padded)]
    stream = stream.reshape(-1, dim, bits)  # each code's bits, most significant first as packed
    level = stream[:, :, 0]
    for j in range(1, bits):
        level = 2 * level + stream[:, :, j]
    offsets = codebook.values.take(level + np.arange(dim) * 2**bits)
    return np.add(codebook.centroids.take(centroid_ids, axis=0), offsets, dtype=np.float64).astype(np.float32)


def compress(vectors: np.ndarray, codebook: ResidualCodebook, key: str = "") -> CompressedPassage:
    """Encode token vectors as nearest-centroid ids plus packed residual codes."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != codebook.dim:
        raise ValidationError(f"expected shape (*, {codebook.dim}), got {vectors.shape}")
    centroids = codebook.centroids.astype(np.float64)
    ids = np.argmax(vectors @ centroids.T, axis=1).astype(np.int32)
    residuals = vectors - centroids[ids]
    codes = _bucketize(residuals, codebook.boundaries)
    return CompressedPassage(
        key=key,
        centroid_ids=ids,
        packed_codes=_pack_codes(codes, codebook.bits),
        num_tokens=int(vectors.shape[0]),
    )


def decompress(compressed: CompressedPassage, codebook: ResidualCodebook) -> np.ndarray:
    """Reconstruct token vectors: centroid plus per-dimension bucket values.

    The result is intentionally not renormalized.
    """
    ids = compressed.centroid_ids
    if len(ids) != compressed.num_tokens:
        raise FormatError(
            f"passage {compressed.key!r}: {len(ids)} centroid ids for {compressed.num_tokens} tokens"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= codebook.num_centroids):
        raise FormatError(
            f"passage {compressed.key!r}: corrupted centroid id outside [0, {codebook.num_centroids})"
        )
    expected_bytes = (compressed.num_tokens * codebook.dim * codebook.bits + 7) // 8
    if compressed.packed_codes.size != expected_bytes:
        raise FormatError(
            f"passage {compressed.key!r}: expected {expected_bytes} code bytes, "
            f"got {compressed.packed_codes.size}"
        )
    return _decode(codebook, np.array([compressed.num_tokens]), ids, compressed.packed_codes)


def maxsim(query_vectors: np.ndarray, doc_vectors: np.ndarray) -> float:
    """Late-interaction score: sum over query tokens of the max dot product."""
    doc_vectors = np.asarray(doc_vectors, dtype=np.float64)
    query_vectors = np.asarray(query_vectors, dtype=np.float64)
    if doc_vectors.ndim != 2 or doc_vectors.shape[0] == 0:
        raise ValidationError("document has no token vectors")
    if query_vectors.shape[0] == 0:
        return 0.0
    if query_vectors.shape[1] != doc_vectors.shape[1]:
        raise ValidationError(
            f"dimension mismatch: query {query_vectors.shape[1]} vs document {doc_vectors.shape[1]}"
        )
    return float((query_vectors @ doc_vectors.T).max(axis=1).sum())


def _segments(offsets: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of segments ``which`` of a flat array cut at ``offsets``, concatenated,
    and where each segment starts among those positions."""
    lengths = offsets[which + 1] - offsets[which]
    starts = np.zeros(len(which), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    positions = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(offsets[which] - starts, lengths)
    return positions, starts


class DenseIndex:
    """Compressed passages in the flat layout of the index directory, plus an inverted map.

    Passage ``i`` has key ``keys[i]``, centroid ids
    ``centroid_ids[token_offsets[i]:token_offsets[i + 1]]`` and residual codes
    ``packed_codes[byte_offsets[i]:byte_offsets[i + 1]]``; the latter are
    ``ceil(tokens * dim * bits / 8)`` bytes, as each passage's codes are
    padded to a byte boundary. Both offset arrays have ``len(keys) + 1``
    entries, start at 0, never decrease, and end at the length of the array
    they cut. The passages containing centroid ``c`` are
    ``inverted_passages[inverted_offsets[c]:inverted_offsets[c + 1]]``, in
    increasing order and each once. No other code computes these offsets.
    """

    def __init__(
        self,
        codebook: ResidualCodebook,
        keys: list[str],
        token_counts: np.ndarray,
        centroid_ids: np.ndarray,
        packed_codes: np.ndarray,
        params: DenseIndexParams,
    ):
        self.codebook = codebook
        self.keys = keys
        self.centroid_ids = centroid_ids
        self.packed_codes = packed_codes
        self.params = params
        token_counts = np.asarray(token_counts, dtype=np.int64)
        code_bytes = (token_counts * codebook.dim * codebook.bits + 7) // 8
        self.token_offsets = np.concatenate(([0], np.cumsum(token_counts)))
        self.byte_offsets = np.concatenate(([0], np.cumsum(code_bytes)))
        if self.token_offsets[-1] != centroid_ids.size or self.byte_offsets[-1] != packed_codes.size:
            raise FormatError("token counts disagree with the centroid id or code array lengths")
        # One sort of (centroid id, passage ordinal) pairs, encoded as cid * n + ordinal.
        n = len(keys)
        ordinals = np.repeat(np.arange(n, dtype=np.int64), token_counts)
        pairs = np.unique(centroid_ids.astype(np.int64) * n + ordinals)
        self.inverted_passages = pairs % n
        self.inverted_offsets = np.searchsorted(pairs // n, np.arange(codebook.num_centroids + 1))
        # Rank of each key in string order, for ties broken by passage key.
        self._key_rank = np.empty(n, dtype=np.int64)
        self._key_rank[np.argsort(np.array(keys, dtype=object), kind="stable")] = np.arange(n)

    def __len__(self) -> int:
        return len(self.keys)

    def decode(self, ordinals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token vectors of passages ``ordinals``, concatenated, and offsets cutting them
        per passage (``len(ordinals) + 1`` entries, from 0)."""
        tokens, starts = _segments(self.token_offsets, ordinals)
        code_bytes, _ = _segments(self.byte_offsets, ordinals)
        counts = self.token_offsets[ordinals + 1] - self.token_offsets[ordinals]
        vectors = _decode(self.codebook, counts, self.centroid_ids[tokens], self.packed_codes[code_bytes])
        return vectors, np.append(starts, len(tokens))

    def decompress_passage(self, ordinal: int) -> np.ndarray:
        return self.decode(np.array([ordinal]))[0]


def _check_keys(keys: Iterable[str]) -> None:
    """``keys.txt`` holds one passage key per line, so no key may contain a line feed."""
    for key in keys:
        if "\n" in key:
            raise ValidationError(f"passage key {key!r} contains a line feed")


def build_dense_index(
    embeddings: Mapping[str, np.ndarray], params: DenseIndexParams | None = None
) -> DenseIndex:
    """Train a codebook on the collection and compress every passage."""
    params = params if params is not None else DenseIndexParams()
    params.validate()
    _check_keys(embeddings)
    start = time.perf_counter()
    codebook = train_codebook(embeddings, params)
    trained = time.perf_counter()
    keys = list(embeddings.keys())
    passages = [compress(np.asarray(embeddings[key]), codebook, key=key) for key in keys]
    done = time.perf_counter()
    logger.info(
        "event=dense_index_build passages=%d tokens=%d centroids=%d bits=%d "
        "train_ms=%.1f compress_ms=%.1f",
        len(keys),
        sum(p.num_tokens for p in passages),
        codebook.num_centroids,
        codebook.bits,
        (trained - start) * 1e3,
        (done - trained) * 1e3,
    )
    resolved = replace(params, num_centroids=codebook.num_centroids)
    ids = np.concatenate([p.centroid_ids for p in passages])
    codes = np.concatenate([p.packed_codes for p in passages])
    return DenseIndex(codebook, keys, [p.num_tokens for p in passages], ids, codes, resolved)


def search_dense(
    index: DenseIndex,
    query_vectors: np.ndarray,
    params: DenseIndexParams | None = None,
) -> list[tuple[str, float]]:
    """Staged late-interaction search returning every fully scored passage.

    Stage 1 probes the ``nprobe`` nearest centroids per query token and
    collects passages containing any probed centroid. Stage 2 ranks the
    candidates by MaxSim computed on centroids alone and keeps the top
    ``candidate_cap``. Stage 3 scores the survivors exactly on decompressed
    vectors; results are sorted by descending score, ties by passage key.

    Stage 3 decodes survivors ``_DECODE_BLOCK`` at a time, which bounds peak
    memory, with one bit unpacking and one lookup of bucket values per block.
    Each passage is then scored with its own matrix product, not one per
    block, because BLAS sums a dot product in an order that depends on the
    matrix shape; so every score equals ``maxsim`` on the passage's
    ``decompress`` output exactly.
    """
    params = params if params is not None else index.params
    params.validate()
    query = np.asarray(query_vectors, dtype=np.float64)
    if query.ndim != 2 or query.shape[0] == 0:
        raise ValidationError("query must contain at least one token vector")
    if query.shape[1] != index.codebook.dim:
        raise ValidationError(
            f"query dimension {query.shape[1]} does not match index dimension {index.codebook.dim}"
        )
    if len(index) == 0:
        return []

    t0 = time.perf_counter()
    centroid_sims = query @ index.codebook.centroids.astype(np.float64).T  # (nq, K)
    nprobe = min(params.nprobe, index.codebook.num_centroids)
    probed = np.unique(np.argsort(-centroid_sims, axis=1, kind="stable")[:, :nprobe])
    positions, _ = _segments(index.inverted_offsets, probed)
    candidates = np.unique(index.inverted_passages[positions])
    t1 = time.perf_counter()

    # Row j holds the query tokens' similarities to the centroid of candidate
    # token j. A segmented max leaves one row per candidate, and each row sums
    # as one contiguous vector, the same summation as per-passage MaxSim.
    positions, starts = _segments(index.token_offsets, candidates)
    token_sims = np.ascontiguousarray(centroid_sims.T)[index.centroid_ids[positions]]
    approx = np.maximum.reduceat(token_sims, starts, axis=0).sum(axis=1)
    order = np.lexsort((index._key_rank[candidates], -approx))
    survivors = candidates[order[: params.candidate_cap]]
    t2 = time.perf_counter()

    exact = np.empty(len(survivors))
    for first in range(0, len(survivors), _DECODE_BLOCK):
        vectors, offsets = index.decode(survivors[first : first + _DECODE_BLOCK])
        vectors = vectors.astype(np.float64)
        for i, (start, end) in enumerate(pairwise(offsets.tolist()), start=first):
            exact[i] = (query @ vectors[start:end].T).max(axis=1).sum()
    order = np.lexsort((index._key_rank[survivors], -exact))
    results = [(index.keys[survivors[i]], float(exact[i])) for i in order]
    t3 = time.perf_counter()
    logger.info(
        "event=dense_search query_tokens=%d probed_centroids=%d candidates=%d scored=%d "
        "stage1_ms=%.2f stage2_ms=%.2f stage3_ms=%.2f",
        query.shape[0],
        len(probed),
        len(candidates),
        len(results),
        (t1 - t0) * 1e3,
        (t2 - t1) * 1e3,
        (t3 - t2) * 1e3,
    )
    return results


def maxp_aggregate(passage_scores: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Document score = max over its passages; descending order, ties by doc id."""
    return _best_per_id(passage_scores)


def save_dense_index(index: DenseIndex, dirpath: str | Path) -> None:
    _check_keys(index.keys)
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    meta = {
        **asdict(index.params),
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "dim": index.codebook.dim,
        "bits": index.codebook.bits,
        "num_centroids": index.codebook.num_centroids,
        "num_passages": len(index),
    }
    (dirpath / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    np.save(dirpath / "centroids.npy", index.codebook.centroids)
    np.save(dirpath / "bucket_boundaries.npy", index.codebook.boundaries)
    np.save(dirpath / "bucket_values.npy", index.codebook.values)
    with open(dirpath / "keys.txt", "w", encoding="utf-8", newline="\n") as fh:
        for key in index.keys:
            fh.write(key + "\n")
    np.save(dirpath / "token_counts.npy", np.diff(index.token_offsets))
    np.save(dirpath / "centroid_ids.npy", index.centroid_ids)
    np.save(dirpath / "packed_codes.npy", index.packed_codes)


def load_dense_index(dirpath: str | Path) -> DenseIndex:
    dirpath = Path(dirpath)
    meta_path = dirpath / "meta.json"
    with malformed(meta_path, "index metadata"):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != INDEX_FORMAT or meta.get("version") != INDEX_VERSION:
            raise FormatError(
                f"{dirpath}: unsupported index format {meta.get('format')!r} v{meta.get('version')!r}"
            )
        num_passages, dim = int(meta["num_passages"]), int(meta["dim"])
        params = DenseIndexParams(**{f.name: int(meta[f.name]) for f in fields(DenseIndexParams)})
    codebook = ResidualCodebook(
        centroids=load_array(dirpath / "centroids.npy", 2, np.floating),
        boundaries=load_array(dirpath / "bucket_boundaries.npy", 2, np.floating),
        values=load_array(dirpath / "bucket_values.npy", 2, np.floating),
        bits=params.bits,
    )
    if (dim, params.num_centroids) != (codebook.dim, codebook.num_centroids):
        raise FormatError(
            f"{meta_path}: dim {dim} and num_centroids {params.num_centroids} disagree with "
            f"centroids.npy, which holds {codebook.num_centroids} centroids of dim {codebook.dim}"
        )
    codebook.validate()
    # Split on line feeds only: a key may contain any other line break.
    keys_path = dirpath / "keys.txt"
    with malformed(keys_path, "passage key list"), open(keys_path, encoding="utf-8", newline="") as fh:
        keys = fh.read().split("\n")[:-1]
    token_counts = load_array(dirpath / "token_counts.npy", 1, np.integer)
    if (token_counts < 0).any():
        raise FormatError(f"{dirpath}/token_counts.npy: negative token count")
    if len(keys) != len(token_counts) or len(keys) != num_passages:
        raise FormatError(f"{dirpath}: passage table sizes disagree with meta.json")
    centroid_ids = load_array(dirpath / "centroid_ids.npy", 1, np.integer)
    if centroid_ids.size and (centroid_ids.min() < 0 or centroid_ids.max() >= codebook.num_centroids):
        raise FormatError(
            f"{dirpath}/centroid_ids.npy: centroid ids must be integers in [0, {codebook.num_centroids})"
        )
    packed = load_array(dirpath / "packed_codes.npy", 1, np.uint8)
    try:
        return DenseIndex(codebook, keys, token_counts, centroid_ids, packed, params)
    except FormatError as exc:
        raise FormatError(f"{dirpath}: {exc}") from None
