"""Late-interaction dense retrieval over compressed token embeddings.

Every passage is a matrix of unit-normalized token vectors. Indexing trains a
centroid codebook with spherical k-means, stores each token as its nearest
centroid id plus a b-bit-per-dimension quantized residual, and builds two maps
from one sort of the (passage, centroid id) pairs: from each passage to its
distinct centroid ids, and an inverted map from each centroid id to the
passages containing it. Search runs in three stages: centroid probing per
query token to collect candidate passages through the inverted map, ranking
candidates by a MaxSim over their distinct centroids alone, then exact MaxSim
for the surviving candidates. The last stage never decodes a vector: a
decoded token is its centroid plus one bucket value per dimension, so its dot
product with a query token is their centroid similarity plus one entry per
code byte from small per-query tables (see ``search_dense``).

Embedding file format (all integers little-endian):

    magic    5 bytes   b"LIEMB"
    version  u32       currently 1
    dim      u32
    count    u64       number of passages
    per passage: key_len u16, key bytes (UTF-8), token_count u32,
                 token_count * dim float32 values (row-major)

``load_embeddings`` reads the file into one buffer once and parses every
record, refusing any size a record claims beyond the bytes left, before it
checks a norm; ``write_embeddings`` checks norms before it opens its file.
Both check them with ``_check_norms``, 64 passages per numpy call.

Index directory layout (version 3): ``meta.json`` (format, version,
parameters), ``centroids.npy``, ``bucket_boundaries.npy``,
``bucket_values.npy``, ``keys.txt`` (one passage key per line, in increasing
code-point order, which every per-passage array follows), ``token_counts.npy``,
``centroid_ids.npy`` (concatenated per passage) and ``codes.npy``, the
residual codes as one row of bytes per token in ``centroid_ids`` order. A
byte holds the levels of ``8 // bits`` dimensions, most significant first,
and zero bits after them, so a row has ``ceil(dim / (8 // bits))`` bytes.
Where ``bits`` divides 8 and ``dim`` is a multiple of ``8 // bits``, as for
16 dimensions of 1 bit, no bit is padding; otherwise each row pads its bytes.
Centroid ids take the narrowest unsigned dtype that holds
``num_centroids - 1`` (uint8 up to 256 centroids, uint16 up to 65,536) and
token counts are int32. Loading accepts any integer dtype for both and checks
their values, so a directory written with int32 ids and int64 counts, as
before, loads into the same ``DenseIndex``, narrow ids included, and searches
the same.
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

from .errors import LONE_SURROGATE, FormatError, ValidationError, json_int, load_array, malformed, unwritable
from .shards import _best_per_id

logger = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"LIEMB"
EMBEDDING_VERSION = 1
NORM_TOLERANCE = 1e-4
# Passages whose norms _check_norms takes with one numpy call: a call per passage costs more,
# and one call over all rows would hold a float64 copy of every vector at once.
_NORM_BLOCK = 64

INDEX_FORMAT = "xlir-dense-index"
INDEX_VERSION = 3

# Mapping from passage key to (token_count, dim) float32 matrix.
TokenEmbeddings = dict[str, np.ndarray]


@dataclass(frozen=True)
class DenseIndexParams:
    """Indexing and search parameters, checked when the set is made.

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

    def __post_init__(self) -> None:
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
        if self.sample_per_centroid < 1:
            raise ValidationError(f"sample_per_centroid must be >= 1, got {self.sample_per_centroid}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def default_num_centroids(total_tokens: int) -> int:
        return 2 ** math.ceil(math.log2(16.0 * math.sqrt(total_tokens)))


def _check_keys(keys: list[str], forbidden: str = "\n") -> None:
    """Refuse the first passage key that is not a string, holds a lone surrogate (so has no UTF-8
    bytes) or holds one of ``forbidden``, by default the line feed that ends a key in ``keys.txt``."""
    bad = unwritable(keys, forbidden)
    if bad is None:
        return
    key = keys[bad]
    if not isinstance(key, str):
        raise ValidationError(f"passage key {key!r}: expected a string")
    if unwritable([key]) is not None:
        raise ValidationError(f"passage key {key!r}: {LONE_SURROGATE}")
    raise ValidationError(f"passage key {key!r} contains a line feed")


def _check_norms(items: list[tuple[str, np.ndarray]], where: str) -> None:
    """Refuse, prefixed by ``where``, the first vector of ``(key, matrix)`` items whose float64 norm is
    not within ``NORM_TOLERANCE`` of 1 (NaN included), taking ``_NORM_BLOCK`` passages per numpy call."""
    for start in range(0, len(items), _NORM_BLOCK):
        block = items[start : start + _NORM_BLOCK]
        norms = np.linalg.norm(np.concatenate([matrix for _, matrix in block], dtype=np.float64), axis=1)
        unit = np.abs(norms - 1.0) <= NORM_TOLERANCE
        if not unit.all():
            row = int(np.argmin(unit))
            ends = np.cumsum([len(matrix) for _, matrix in block])
            p = int(np.searchsorted(ends, row, side="right"))
            token = row - (int(ends[p - 1]) if p else 0)
            raise ValidationError(f"{where}passage {block[p][0]!r} token {token} has norm {norms[row]:.6f}, expected 1")


def write_embeddings(path: str | Path, embeddings: Mapping[str, np.ndarray]) -> None:
    """Write passage token matrices in the binary embedding format; refuse, before opening
    ``path``, any passage ``load_embeddings`` would refuse."""
    if not embeddings:
        raise ValidationError("refusing to write an embedding file with no passages")
    _check_keys(list(embeddings), forbidden="")  # stored after its length, a key may hold a line feed
    items = [(key, key.encode("utf-8"), np.asarray(matrix, dtype=np.float32)) for key, matrix in embeddings.items()]
    first = items[0][2]
    dim = first.shape[1] if first.ndim == 2 else None
    for key, key_bytes, matrix in items:
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] != dim:
            raise ValidationError(
                f"passage {key!r}: expected (tokens >= 1, dim) with the first passage's dim, got shape {matrix.shape}"
            )
        if len(key_bytes) > 0xFFFF:
            raise ValidationError(f"passage key {key[:20]!r}...: {len(key_bytes)} UTF-8 bytes, at most 65535 fit")
    _check_norms([(key, matrix) for key, _, matrix in items], "")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<IIQ", EMBEDDING_VERSION, dim, len(items)))
        for _, key_bytes, matrix in items:
            fh.write(struct.pack("<H", len(key_bytes)))
            fh.write(key_bytes)
            fh.write(struct.pack("<I", matrix.shape[0]))
            fh.write(matrix.astype("<f4").tobytes(order="C"))


def load_embeddings(path: str | Path) -> TokenEmbeddings:
    """Read an embedding file into one buffer, refusing a bad header or record, then check every norm.
    Vectors move to the buffer's front as read, so each matrix is an aligned, writable float32 view of it."""
    data = np.fromfile(path, dtype=np.uint8)
    end = len(EMBEDDING_MAGIC)
    magic = data[:end].tobytes()
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")

    def field(size: int, what: str) -> int:
        """Where the next ``size`` bytes start; a size a record claims is compared with the bytes left."""
        nonlocal end
        if size > len(data) - end:
            raise FormatError(f"{path}: truncated embedding file while reading {what}")
        end += size
        return end - size

    version, dim, count = struct.unpack_from("<IIQ", data, field(16, "header"))
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise FormatError(f"{path}: non-positive dimension {dim}")
    embeddings: TokenEmbeddings = {}
    moved = 0
    for i in range(count):
        (key_len,) = struct.unpack_from("<H", data, field(2, f"record {i} key length"))
        try:
            key = data[field(key_len, f"record {i} key") : end].tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record {i} key is not UTF-8 ({exc.reason})") from None
        (token_count,) = struct.unpack_from("<I", data, field(4, f"{key!r} token count"))
        if token_count == 0:
            raise ValidationError(f"{path}: passage {key!r} has no tokens")
        size = token_count * dim * 4
        data[moved : moved + size] = data[field(size, f"{key!r} vectors") : end]
        if key in embeddings:
            raise ValidationError(f"{path}: duplicate passage key {key!r}")
        embeddings[key] = data[moved : moved + size].view("<f4").reshape(token_count, dim)
        moved += size
    if end != len(data):
        raise FormatError(f"{path}: trailing bytes after {count} records")
    _check_norms(list(embeddings.items()), f"{path}: ")
    return embeddings


# Each codebook field and the index file that stores it.
_CODEBOOK_FILES = {"centroids": "centroids.npy", "boundaries": "bucket_boundaries.npy", "values": "bucket_values.npy"}


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
        fault = self._fault()
        if fault is not None:
            raise ValidationError(fault[1])

    def _fault(self) -> tuple[str, str] | None:
        """The first array that breaks an invariant, by field name, and how; ``None`` if none does."""
        levels = 2**self.bits
        for name in _CODEBOOK_FILES:
            if not np.isfinite(getattr(self, name)).all():
                return name, f"codebook {name} must be finite"
        if self.boundaries.shape != (self.dim, levels - 1):
            return "boundaries", f"boundaries shape {self.boundaries.shape} != {(self.dim, levels - 1)}"
        if self.values.shape != (self.dim, levels):
            return "values", f"values shape {self.values.shape} != {(self.dim, levels)}"
        if not (np.diff(self.values, axis=1) > 0).all():
            return "values", "bucket reconstruction values must be strictly increasing per dimension"
        return None


@dataclass
class CompressedPassage:
    key: str
    centroid_ids: np.ndarray  # (tokens,) in the narrowest unsigned dtype that holds num_centroids - 1
    codes: np.ndarray  # (tokens, ceil(dim / (8 // bits))) uint8, one code row per token


def _bucketize(residuals: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    # searchsorted(side="right") per dimension: count of boundaries <= r.
    return (residuals[:, :, None] >= boundaries[None, :, :]).sum(axis=2).astype(np.uint8)


# At 256 centroids a block's float64 product is 1 MiB, which stays in a core's L2 cache.
_ASSIGN_BLOCK = 512
_SCORE_BLOCK = 128


def _assign_nearest(vectors: np.ndarray, centroids_t: np.ndarray) -> np.ndarray:
    """Argmax dot-product assignment as ids in the narrowest dtype that holds K - 1, ``_ASSIGN_BLOCK`` rows at a time.

    BLAS gives a row the same product bits in any block of two or more rows,
    but a one-row block goes through a matrix-vector kernel that may round
    differently. Block starts stop short of the last row, so a one-row tail
    joins the block before it.
    """
    n = vectors.shape[0]
    out = np.empty(n, dtype=np.min_scalar_type(centroids_t.shape[1] - 1))
    for start, end in pairwise([*range(0, max(n - 1, 1), _ASSIGN_BLOCK), n]):
        out[start:end] = np.argmax(vectors[start:end] @ centroids_t, axis=1)
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
    embeddings: Mapping[str, np.ndarray], params: DenseIndexParams = DenseIndexParams()
) -> ResidualCodebook:
    """Spherical k-means over a seeded token sample plus residual bucket fitting.

    Centroids are renormalized to unit length after every update; empty
    clusters keep their previous centroid. Residual buckets are fit on the
    same sample: boundaries at empirical quantiles (fixed at zero for 1 bit)
    and reconstruction values at within-bucket means.
    """
    if not embeddings:
        raise ValidationError("no embeddings to train on")
    # Stacked in their own dtype (float32 from load_embeddings); only the sample is
    # cast to float64, which is exact.
    tokens = np.vstack(list(embeddings.values()))
    total = tokens.shape[0]
    k = params.num_centroids or DenseIndexParams.default_num_centroids(total)
    if total < k:
        raise ValidationError(
            f"{total} training tokens for {k} centroids; set num_centroids <= {total}"
        )
    rng = np.random.default_rng(params.seed)
    sample_size = min(total, params.sample_per_centroid * k)
    sample = tokens[rng.permutation(total)[:sample_size]].astype(np.float64)

    centroids = sample[rng.choice(sample_size, size=k, replace=False)].copy()
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids /= np.where(norms > 0, norms, 1.0)
    for _ in range(params.kmeans_iters):
        assign = _assign_nearest(sample, centroids.T)
        # One stable sort lists each cluster's members in sample order, as a boolean
        # mask per cluster would, so each mean adds them in the same order. Ids come in
        # the narrowest dtype that holds k - 1, which numpy sorts by radix.
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign, np.arange(k + 1), sorter=order)
        for c, (start, end) in enumerate(pairwise(bounds.tolist())):
            if start == end:
                continue
            mean = sample[order[start:end]].mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm

    # Fit residual buckets against the rounded centroids compression will use.
    stored = centroids.astype(np.float32)
    assign = _assign_nearest(sample, stored.astype(np.float64).T)
    residuals = sample - stored.astype(np.float64)[assign]
    levels = 2**params.bits
    if params.bits == 1:
        boundaries = np.zeros((sample.shape[1], 1), dtype=np.float64)
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


def _code_layout(dim: int, bits: int) -> tuple[int, range]:
    """Bytes per code row, and the right shift that brings each of a byte's
    ``8 // bits`` dimensions, most significant first, to its low bits."""
    shifts = range(8 - bits, -1, -bits)
    return -(-dim // len(shifts)), shifts


def _pack(levels: np.ndarray, bits: int) -> np.ndarray:
    """Code rows of a (tokens, dim) array of ``bits``-bit levels: byte ``b`` of a row
    holds dimensions ``b * per`` up to ``(b + 1) * per`` for ``per = 8 // bits``."""
    width, shifts = _code_layout(levels.shape[1], bits)
    codes = np.zeros((len(levels), width), dtype=np.uint8)
    for j, shift in enumerate(shifts):  # the j-th dimension of every byte
        held = levels[:, j :: len(shifts)]
        codes[:, : held.shape[1]] |= held << shift
    return codes


def _decode(codebook: ResidualCodebook, centroid_ids: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Token vectors of the given centroid ids and code rows: each the float64 sum of
    its centroid and bucket values, rounded to float32."""
    dim, bits = codebook.dim, codebook.bits
    width, shifts = _code_layout(dim, bits)
    levels = (codes[:, :, None] >> np.array(shifts, dtype=np.uint8)) & (2**bits - 1)
    levels = levels.reshape(len(codes), width * len(shifts))[:, :dim]
    offsets = codebook.values.take(levels + np.arange(dim) * 2**bits)
    return np.add(codebook.centroids.take(centroid_ids, axis=0), offsets, dtype=np.float64).astype(np.float32)


def _code_tables(codebook: ResidualCodebook, query: np.ndarray) -> np.ndarray:
    """Per-query lookup tables for code rows: ``tables[b, v, q]`` is the dot product of
    query token ``q`` with the bucket values that code byte ``b`` holding ``v`` selects,
    over the dimensions of that byte, summed in dimension order."""
    dim, bits = codebook.dim, codebook.bits
    width, shifts = _code_layout(dim, bits)
    tables = np.zeros((width, 256, query.shape[0]))
    byte_values = np.arange(256)
    for j, shift in enumerate(shifts):  # the j-th dimension of every byte
        dims = np.arange(j, dim, len(shifts))
        levels = (byte_values >> shift) & (2**bits - 1)
        values = codebook.values[dims][:, levels]  # (bytes holding a j-th dimension, 256)
        tables[: len(dims)] += values[:, :, None] * query.T[dims][:, None, :]
    return tables


def _encode(vectors: np.ndarray, codebook: ResidualCodebook, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid ids, as ``_assign_nearest`` types them, and (tokens, dim) residual levels
    of token vectors, given the codebook's centroids cast to float64."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != codebook.dim:
        raise ValidationError(f"expected shape (*, {codebook.dim}), got {vectors.shape}")
    ids = _assign_nearest(vectors, centroids.T)
    return ids, _bucketize(vectors - centroids[ids], codebook.boundaries)


def compress(vectors: np.ndarray, codebook: ResidualCodebook, key: str = "") -> CompressedPassage:
    """Encode token vectors as nearest-centroid ids plus one row of residual codes each."""
    ids, levels = _encode(vectors, codebook, codebook.centroids.astype(np.float64))
    return CompressedPassage(key=key, centroid_ids=ids, codes=_pack(levels, codebook.bits))


def decompress(compressed: CompressedPassage, codebook: ResidualCodebook) -> np.ndarray:
    """Reconstruct token vectors: centroid plus per-dimension bucket values.

    The result is intentionally not renormalized.
    """
    ids, codes = compressed.centroid_ids, compressed.codes
    if ids.size and (ids.min() < 0 or ids.max() >= codebook.num_centroids):
        raise FormatError(
            f"passage {compressed.key!r}: corrupted centroid id outside [0, {codebook.num_centroids})"
        )
    shape = (len(ids), _code_layout(codebook.dim, codebook.bits)[0])
    if codes.shape != shape:
        raise FormatError(f"passage {compressed.key!r}: expected codes of shape {shape}, got {codes.shape}")
    return _decode(codebook, ids, codes)


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
    """Compressed passages in the flat layout of the index directory, plus two centroid maps.

    Passage ``i`` has key ``keys[i]``, centroid ids
    ``centroid_ids[token_offsets[i]:token_offsets[i + 1]]`` (in the narrowest
    unsigned dtype that holds K - 1 when built or loaded; never used in
    arithmetic, only as indexes and sort keys) and residual code
    rows ``codes[token_offsets[i]:token_offsets[i + 1]]``, one uint8 row of
    ``ceil(dim / (8 // bits))`` bytes per token, laid out as in ``codes.npy``
    (see the module docstring); stage 3 of ``search_dense`` reads them as they
    are. Keys strictly increase, so a passage's ordinal is its key's rank and
    a tie broken by ordinal is broken by key. ``token_offsets`` has
    ``len(keys) + 1`` entries, starts at 0, never decreases, and ends at the
    number of tokens. Passage ``i``'s distinct centroid ids are
    ``distinct_centroids[distinct_offsets[i]:distinct_offsets[i + 1]]``, in
    increasing order and in ``centroid_ids``' dtype. The passages containing
    centroid ``c`` are
    ``inverted_passages[inverted_offsets[c]:inverted_offsets[c + 1]]``, in
    increasing order and each once. Both maps hold the same pairs, and
    neither is stored on disk. No other code computes these offsets.
    """

    def __init__(
        self,
        codebook: ResidualCodebook,
        keys: list[str],
        token_counts: np.ndarray,
        centroid_ids: np.ndarray,
        codes: np.ndarray,
        params: DenseIndexParams,
    ):
        fault = _key_order_fault(keys)
        if fault is not None:
            raise FormatError(fault)
        self.codebook = codebook
        self.keys = keys
        self.centroid_ids = centroid_ids
        self.codes = codes
        self.params = params
        token_counts = np.asarray(token_counts, dtype=np.int64)
        self.token_offsets = np.concatenate(([0], np.cumsum(token_counts)))
        shape = (int(self.token_offsets[-1]), _code_layout(codebook.dim, codebook.bits)[0])
        if centroid_ids.shape != shape[:1] or codes.shape != shape:
            raise FormatError(
                f"token counts add up to {shape[0]} tokens, which need {shape[0]} centroid ids and "
                f"codes of shape {shape}, got {centroid_ids.size} ids and codes of shape {codes.shape}"
            )
        n, k = len(keys), codebook.num_centroids
        # An id of K or more would be counted as the next passage's in the pairs below, and
        # fail only at search. load_dense_index refuses such ids first, naming its file.
        if not np.issubdtype(centroid_ids.dtype, np.integer) or (
            centroid_ids.size and (centroid_ids.min() < 0 or centroid_ids.max() >= k)
        ):
            raise ValidationError(f"centroid ids must be integers in [0, {k})")
        # One sort of (passage ordinal, centroid id) pairs, encoded as ordinal * K + cid,
        # cut per passage; a stable sort of its centroid column, cut per centroid, keeps
        # each centroid's passages in increasing order. Repeats are dropped by comparing
        # neighbours, as np.unique took eight times as long for the same pairs, and the
        # stable sort runs on the ids' dtype, the narrowest that holds K - 1, where numpy
        # sorts 8- and 16-bit keys by radix.
        ordinals = np.repeat(np.arange(n, dtype=np.int64), token_counts)
        pairs = np.sort(ordinals * k + centroid_ids.astype(np.int64))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        passages = pairs // k
        self.distinct_centroids = (pairs % k).astype(centroid_ids.dtype)
        self.distinct_offsets = np.searchsorted(passages, np.arange(n + 1))
        by_centroid = np.argsort(self.distinct_centroids, kind="stable")
        self.inverted_passages = passages[by_centroid]
        self.inverted_offsets = np.searchsorted(self.distinct_centroids, np.arange(k + 1), sorter=by_centroid)

    def __len__(self) -> int:
        return len(self.keys)

    def decompress_passage(self, ordinal: int) -> np.ndarray:
        """Token vectors of passage ``ordinal``, decoded as ``decompress`` does."""
        t0, t1 = self.token_offsets[ordinal : ordinal + 2]
        return _decode(self.codebook, self.centroid_ids[t0:t1], self.codes[t0:t1])


def _key_order_fault(keys: Iterable[str]) -> str | None:
    """How passage keys first fail to strictly increase; ``None`` if they do."""
    for before, after in pairwise(keys):
        if before >= after:
            if before == after:
                return f"duplicate passage key {after!r}"
            return f"passage key {after!r} out of order after {before!r}"
    return None


def build_dense_index(
    embeddings: Mapping[str, np.ndarray], params: DenseIndexParams = DenseIndexParams()
) -> DenseIndex:
    """Train a codebook on the collection and compress every passage, laid out in key order.

    The codebook is trained on the embeddings in the caller's order.
    """
    _check_keys(list(embeddings))
    first = np.shape(next(iter(embeddings.values()), ()))[1:]
    for key, matrix in embeddings.items():
        if len(matrix) == 0:
            raise ValidationError(f"passage {key!r} has no tokens")
        if np.shape(matrix)[1:] != first:
            raise ValidationError(f"passage {key!r}: vector shape {np.shape(matrix)[1:]}, the first's is {first}")
    start = time.perf_counter()
    codebook = train_codebook(embeddings, params)
    trained = time.perf_counter()
    keys = sorted(embeddings)
    centroids = codebook.centroids.astype(np.float64)
    encoded = [_encode(embeddings[key], codebook, centroids) for key in keys]
    ids = np.concatenate([passage_ids for passage_ids, _ in encoded])
    # Code rows are independent, so the levels of all passages pack at once.
    codes = _pack(np.concatenate([levels for _, levels in encoded]), codebook.bits)
    done = time.perf_counter()
    logger.info(
        "event=dense_index_build passages=%d tokens=%d centroids=%d bits=%d "
        "train_ms=%.1f compress_ms=%.1f",
        len(keys),
        len(ids),
        codebook.num_centroids,
        codebook.bits,
        (trained - start) * 1e3,
        (done - trained) * 1e3,
    )
    resolved = replace(params, num_centroids=codebook.num_centroids)
    return DenseIndex(codebook, keys, [len(passage_ids) for passage_ids, _ in encoded], ids, codes, resolved)


def search_dense(
    index: DenseIndex,
    query_vectors: np.ndarray,
    params: DenseIndexParams | None = None,
    allowed: np.ndarray | None = None,
) -> list[tuple[str, float]]:
    """Staged late-interaction search returning every fully scored passage.

    Stage 1 probes the ``nprobe`` nearest centroids per query token and
    collects passages containing any probed centroid, keeping only those the
    boolean mask ``allowed`` over passage ordinals admits when one is given
    (``candidates=`` in the log counts what is kept). Stage 2 ranks the
    candidates by MaxSim computed on their distinct centroids alone and keeps
    the top ``candidate_cap``; when there are no more candidates than that, it
    keeps them all without ranking them. Stage 3 scores the survivors by exact
    MaxSim over their compressed tokens; results are sorted by descending
    score, ties by passage ordinal, which is key order.

    Stage 2 gathers one column of query-token similarities per distinct
    centroid of each candidate, takes the max along each candidate's columns,
    and sums a candidate's maxima as one contiguous vector, the summation
    ``maxsim`` uses. Ties in that sum break by passage ordinal.

    Stage 3 builds one table per byte of the index's code rows, holding each
    query token's dot product with the bucket values every byte value
    selects. A token's similarity to a query token is then the centroid
    similarity from stage 1 plus one table entry per byte, added left to right
    in float64; a passage's score is the max of that over its tokens, summed
    over query tokens one after another in query order. Survivors are scored
    ``_SCORE_BLOCK`` at a time, which bounds the (tokens x query tokens) score
    matrix. ``decompress`` rounds each decoded vector to float32 and stage 3
    does not, so a score lies within ``2**-24 * |q| * |x|`` per query token q
    of ``maxsim`` on the passage's ``decompress`` output, for its longest
    decoded token x.
    """
    params = params if params is not None else index.params
    query = np.asarray(query_vectors, dtype=np.float64)
    if query.ndim != 2 or query.shape[0] == 0:
        raise ValidationError("query must contain at least one token vector")
    if query.shape[1] != index.codebook.dim:
        raise ValidationError(
            f"query dimension {query.shape[1]} does not match index dimension {index.codebook.dim}"
        )
    if not np.isfinite(query).all():
        raise ValidationError("query vectors must be finite")
    if allowed is not None and (allowed.dtype != bool or allowed.shape != (len(index),)):
        raise ValidationError(f"allowed must be a boolean mask over the index's {len(index)} passages")
    if len(index) == 0:
        return []

    t0 = time.perf_counter()
    centroid_sims = query @ index.codebook.centroids.astype(np.float64).T  # (nq, K)
    nprobe = min(params.nprobe, index.codebook.num_centroids)
    # Repeats are dropped as for candidates: np.unique's first call imports numpy.ma (8 ms).
    probed = np.sort(np.argsort(-centroid_sims, axis=1, kind="stable")[:, :nprobe], axis=None)
    probed = probed[np.diff(probed, prepend=-1) != 0]
    positions, _ = _segments(index.inverted_offsets, probed)
    candidates = np.sort(index.inverted_passages[positions])
    candidates = candidates[np.diff(candidates, prepend=-1) != 0]
    if allowed is not None:
        candidates = candidates[allowed[candidates]]
    t1 = time.perf_counter()

    # Stage 2 only chooses the candidates the cap keeps, and a passage's exact score
    # does not depend on which others are scored. Survivors stay in ordinal order,
    # so stage 3 reads the token arrays front to back.
    survivors = candidates
    if len(candidates) > params.candidate_cap:
        # A max ignores repeats and order, so the segmented max over each passage's distinct
        # centroids equals the one over its tokens. Gathering and reducing along rows is the
        # fast orientation for numpy; the transposed copy then gives each candidate's maxima
        # as one contiguous row, which sums as per-passage MaxSim does.
        positions, starts = _segments(index.distinct_offsets, candidates)
        columns = np.take(centroid_sims, np.take(index.distinct_centroids, positions), axis=1)
        maxima = np.maximum.reduceat(columns, starts, axis=1)  # (query tokens, candidates)
        approx = np.ascontiguousarray(maxima.T).sum(axis=1)
        # Candidates are in ordinal order, so a stable sort breaks ties by ordinal.
        order = np.argsort(-approx, kind="stable")
        survivors = np.sort(candidates[order[: params.candidate_cap]])
    t2 = time.perf_counter()

    # Scores are (tokens x query tokens), one block at a time, each token's row
    # gathered whole from contiguous (rows x query tokens) tables.
    sims_by_centroid = np.ascontiguousarray(centroid_sims.T)  # (K, query tokens)
    tables = _code_tables(index.codebook, query)  # (code bytes, 256, query tokens)
    maxima = np.empty((query.shape[0], len(survivors)))
    for first in range(0, len(survivors), _SCORE_BLOCK):
        tokens, starts = _segments(index.token_offsets, survivors[first : first + _SCORE_BLOCK])
        # np.take, as fancy indexing gathered these rows several times slower.
        scores = np.take(sims_by_centroid, np.take(index.centroid_ids, tokens), axis=0)
        codes = np.take(index.codes, tokens, axis=0)
        for b, table in enumerate(tables):
            scores += np.take(table, codes[:, b], axis=0)
        maxima[:, first : first + len(starts)] = np.maximum.reduceat(scores, starts, axis=0).T
    # A running sum down the (query tokens x survivors) maxima adds each survivor's
    # maxima in query order. A sum would too, except over a single column, which
    # numpy sums pairwise like any contiguous vector.
    exact = np.add.accumulate(maxima, axis=0)[-1]
    order = np.argsort(-exact, kind="stable")
    results = list(zip([index.keys[i] for i in survivors[order].tolist()], exact[order].tolist()))
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
    """Write ``index`` to ``dirpath``; keys that ``load_dense_index`` would refuse, such as
    ones edited out of order after the build, are refused before any file is written.

    Logs ``event=dense_index_save`` with the bytes of the arrays written (their data, without
    ``.npy`` headers, ``meta.json`` or ``keys.txt``), the number of tokens, and their ratio."""
    _check_keys(index.keys)
    fault = _key_order_fault(index.keys)
    if fault is not None:
        raise ValidationError(fault)
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
    with open(dirpath / "keys.txt", "w", encoding="utf-8", newline="\n") as fh:
        for key in index.keys:
            fh.write(key + "\n")
    arrays = {
        **{filename: getattr(index.codebook, name) for name, filename in _CODEBOOK_FILES.items()},
        "token_counts.npy": np.diff(index.token_offsets).astype(np.int32),
        "centroid_ids.npy": index.centroid_ids,
        "codes.npy": index.codes,
    }
    for filename, array in arrays.items():
        np.save(dirpath / filename, array)
    size, tokens = sum(array.nbytes for array in arrays.values()), len(index.centroid_ids)
    per_token = size / tokens if tokens else 0.0
    logger.info("event=dense_index_save bytes=%d tokens=%d bytes_per_token=%.3f", size, tokens, per_token)


def load_dense_index(dirpath: str | Path) -> DenseIndex:
    dirpath = Path(dirpath)
    meta_path = dirpath / "meta.json"
    with malformed(meta_path, "index metadata"):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != INDEX_FORMAT or meta.get("version") != INDEX_VERSION:
            raise FormatError(
                f"{dirpath}: unsupported index format {meta.get('format')!r} v{meta.get('version')!r}"
            )
        num_passages, dim = (json_int(meta[name], meta_path, name) for name in ("num_passages", "dim"))
        values = {f.name: json_int(meta[f.name], meta_path, f.name) for f in fields(DenseIndexParams)}
        try:
            params = DenseIndexParams(**values)
        except ValidationError as exc:
            raise FormatError(f"{meta_path}: {exc}") from None
    codebook = ResidualCodebook(
        **{name: load_array(dirpath / filename, 2, np.floating) for name, filename in _CODEBOOK_FILES.items()},
        bits=params.bits,
    )
    if (dim, params.num_centroids) != (codebook.dim, codebook.num_centroids):
        raise FormatError(
            f"{meta_path}: dim {dim} and num_centroids {params.num_centroids} disagree with "
            f"centroids.npy, which holds {codebook.num_centroids} centroids of dim {codebook.dim}"
        )
    fault = codebook._fault()
    if fault is not None:
        name, problem = fault
        raise FormatError(f"{dirpath}/{_CODEBOOK_FILES[name]}: {problem}")
    # Split on line feeds only: a key may contain any other line break.
    keys_path = dirpath / "keys.txt"
    with malformed(keys_path, "passage key list"), open(keys_path, encoding="utf-8", newline="") as fh:
        keys = fh.read().split("\n")[:-1]
    token_counts = load_array(dirpath / "token_counts.npy", 1, np.integer)
    # A built passage has a token; a zero count is what moving one passage's tokens onto
    # its neighbour leaves behind.
    if (token_counts < 1).any():
        raise FormatError(f"{dirpath}/token_counts.npy: token counts must be positive")
    if len(keys) != len(token_counts) or len(keys) != num_passages:
        raise FormatError(f"{dirpath}: passage table sizes disagree with meta.json")
    centroid_ids = load_array(dirpath / "centroid_ids.npy", 1, np.integer)
    if centroid_ids.size and (centroid_ids.min() < 0 or centroid_ids.max() >= codebook.num_centroids):
        raise FormatError(
            f"{dirpath}/centroid_ids.npy: centroid ids must be integers in [0, {codebook.num_centroids})"
        )
    centroid_ids = centroid_ids.astype(np.min_scalar_type(codebook.num_centroids - 1), copy=False)
    # An unsigned count of 2**64 - 1 wraps to -1 as int64, which DenseIndex would not refuse by name.
    if (token_counts > centroid_ids.size).any():
        raise FormatError(f"{dirpath}/token_counts.npy: a token count exceeds the {centroid_ids.size} centroid ids")
    codes = load_array(dirpath / "codes.npy", 2, np.uint8)
    try:
        return DenseIndex(codebook, keys, token_counts, centroid_ids, codes, params)
    except FormatError as exc:
        raise FormatError(f"{dirpath}: {exc}") from None
