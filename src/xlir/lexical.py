"""Inverted index over real-valued term weights with BM25 and HMM
query-likelihood scoring plus RM3 pseudo-relevance feedback.

Term weights may be fractional (expected counts from probabilistic document
translation) and are scored exactly like integer term frequencies.

Scoring formulas:

* BM25:  sum over query terms of ``idf(t) * tf / (tf + k1 * (1 - b + b * dl/avgdl))``
  with ``idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))``. Repeated query terms
  count with multiplicity.
* HMM query likelihood:  sum over query terms of
  ``ln(lambda * P(t|D) + (1 - lambda) * P(t|C))`` where ``P(t|D)`` is the
  document language model and ``P(t|C)`` the collection model. Computed in
  log space; a zero-probability term yields ``-inf`` and the document is
  dropped from search results.

Layout: an index keeps each posting once, in compressed sparse rows (see
``InvertedIndex``); search and RM3 read the same arrays. On disk an index
directory holds these arrays as ``.npy`` files (offsets, document ordinals
and float32 weights) beside JSON lists of doc ids and terms (see
``save_index``), and ``load_index`` checks them with array operations.

Feedback: ``rm3_expand`` is the one RM3, for an unsharded index (one shard)
and a date-sharded one alike. Its feedback documents are the top
``rm3_fb_docs`` of a first pass over every given shard, scored with the whole
collection's statistics and merged by raw score with
``shards.merge_shard_results``; each document's bag is read back from the
arrays of the shard that holds it.

Summation order: search scores term at a time, adding each query term's
contributions to one float64 accumulator per document. Every document
therefore adds the same terms in the same order (query order) as
``bm25_score``/``hmm_score`` add them for that document alone, and logs are
taken with ``math.log`` in both (``np.log`` can differ in the last bit), so a
searched score equals the per-document score exactly. Document lengths,
collection frequencies and the total weight are likewise summed one element
after another, never pairwise.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, load_array, malformed
from .shards import merge_shard_results

INDEX_FORMAT = "xlir-lexical-index"
INDEX_VERSION = 2

SCORERS = ("bm25", "hmm")

# The smallest weight that save_index's float32 cast rounds to infinity.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


@dataclass
class LexicalParams:
    """Scoring and feedback parameters.

    ``k1``/``b`` are the BM25 saturation and length-normalization constants;
    ``lambda_`` interpolates document and collection language models;
    ``rm3_*`` control pseudo-relevance feedback (``rm3_alpha`` is the weight
    of the original query).
    """

    k1: float = 0.9
    b: float = 0.4
    lambda_: float = 0.5
    rm3_fb_docs: int = 10
    rm3_fb_terms: int = 10
    rm3_alpha: float = 0.5

    def validate(self) -> None:
        if self.k1 < 0:
            raise ValidationError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 < self.lambda_ <= 1.0:
            raise ValidationError(f"lambda must be in (0, 1], got {self.lambda_}")
        if self.rm3_fb_docs < 1 or self.rm3_fb_terms < 1:
            raise ValidationError("rm3_fb_docs and rm3_fb_terms must be >= 1")
        if not 0.0 <= self.rm3_alpha <= 1.0:
            raise ValidationError(f"rm3_alpha must be in [0, 1], got {self.rm3_alpha}")


DEFAULT_PARAMS = LexicalParams()


@dataclass
class CollectionStats:
    """Global term statistics; can be shared by several shard indexes."""

    num_docs: int
    total_weight: float
    doc_freq: dict[str, int]
    coll_freq: dict[str, float]

    @property
    def avg_doc_length(self) -> float:
        return self.total_weight / self.num_docs if self.num_docs else 0.0

    @classmethod
    def merge(cls, parts: Iterable["CollectionStats"]) -> "CollectionStats":
        """Statistics of the union of disjoint collections, summed in the given order."""
        doc_freq: dict[str, int] = {}
        coll_freq: dict[str, float] = {}
        num_docs = 0
        total_weight = 0.0
        for part in parts:
            num_docs += part.num_docs
            total_weight += part.total_weight
            for term, df in part.doc_freq.items():
                doc_freq[term] = doc_freq.get(term, 0) + df
            for term, cf in part.coll_freq.items():
                coll_freq[term] = coll_freq.get(term, 0.0) + cf
        return cls(num_docs=num_docs, total_weight=total_weight, doc_freq=doc_freq, coll_freq=coll_freq)


@dataclass(eq=False, frozen=True)
class InvertedIndex:
    """Immutable index holding each posting once, in compressed sparse rows.

    Invariants:

    * ``doc_ids`` and ``terms`` are sorted and unique; a document's ordinal
      is its position in ``doc_ids``.
    * ``offsets`` has ``len(terms) + 1`` entries, starts at 0, ends at
      ``len(docs)`` and strictly increases: every term has a posting.
    * The postings of ``terms[t]`` are ``docs[offsets[t]:offsets[t + 1]]``
      (int32 ordinals, strictly increasing) with the matching ``weights``
      (float64, positive and finite as float32).
    * ``doc_lengths[i]`` is the sum of document ``i``'s weights; ``stats``
      holds this index's own collection statistics.

    There is no per-document copy of the postings: ``doc_bag`` reads a
    document's terms back from the arrays.
    """

    doc_ids: list[str]
    terms: list[str]
    offsets: np.ndarray
    docs: np.ndarray
    weights: np.ndarray
    doc_lengths: np.ndarray
    stats: CollectionStats

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        i = bisect_left(self.doc_ids, doc_id)
        return i < len(self.doc_ids) and self.doc_ids[i] == doc_id

    def ordinal(self, doc_id: str) -> int:
        if doc_id not in self:
            raise ValidationError(f"document {doc_id!r} not in index")
        return bisect_left(self.doc_ids, doc_id)

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Document ordinals and weights of one term (views of the CSR arrays); empty for an unknown term."""
        t = bisect_left(self.terms, term)
        start, end = self.offsets[t : t + 2] if t < len(self.terms) and self.terms[t] == term else (0, 0)
        return self.docs[start:end], self.weights[start:end]

    def weight(self, term: str, doc_id: str) -> float:
        docs, weights = self.postings(term)
        return float(weights[docs == self.ordinal(doc_id)].sum())

    def doc_bag(self, doc_id: str) -> dict[str, float]:
        positions = np.flatnonzero(self.docs == self.ordinal(doc_id))
        rows = np.searchsorted(self.offsets, positions, side="right") - 1
        return dict(zip([self.terms[t] for t in rows.tolist()], self.weights[positions].tolist()))


def _from_postings(
    doc_ids: list[str], vocabulary: list[str], term_ids: np.ndarray, ordinals: np.ndarray, weights: np.ndarray
) -> InvertedIndex:
    """The one constructor of an index, from the columns of its positive postings.

    Posting ``j`` gives ``weights[j]`` to term ``vocabulary[term_ids[j]]`` in
    document ``doc_ids[ordinals[j]]``; ids, terms and postings may come in
    any order. Every sum is taken one element after another: a document's
    length in the order its postings are given, the total weight in
    ``doc_ids`` order, and a term's collection frequency in doc-id order.
    ``build_index`` gives postings in bag order and ``load_index`` in file
    (term-major) order.
    """
    ordinals, weights = np.asarray(ordinals, dtype=np.int64), np.asarray(weights, dtype=np.float64)
    lengths = np.bincount(ordinals, weights=weights, minlength=len(doc_ids))
    total_weight = float(np.cumsum(lengths)[-1]) if len(doc_ids) else 0.0
    doc_order = np.argsort(np.array(doc_ids, dtype=object), kind="stable")
    term_order = np.argsort(np.array(vocabulary, dtype=object), kind="stable")
    doc_ids, terms = [doc_ids[i] for i in doc_order], [vocabulary[t] for t in term_order]
    for what, names in (("document id", doc_ids), ("term", terms)):
        for a, b in zip(names, names[1:]):
            if a == b:
                raise ValidationError(f"duplicate {what} {a!r}")
    rows, docs = np.argsort(term_order)[term_ids], np.argsort(doc_order)[ordinals]
    order = np.lexsort((docs, rows))
    rows, docs, weights = rows[order], docs[order].astype(np.int32), weights[order]
    if ((rows[1:] == rows[:-1]) & (docs[1:] == docs[:-1])).any():
        raise ValidationError("a term has two postings for one document")
    offsets = np.searchsorted(rows, np.arange(len(terms) + 1))
    coll_freq = np.bincount(rows, weights=weights, minlength=len(terms))
    doc_freq = dict(zip(terms, np.diff(offsets).tolist()))
    stats = CollectionStats(len(doc_ids), total_weight, doc_freq, dict(zip(terms, coll_freq.tolist())))
    return InvertedIndex(doc_ids, terms, offsets, docs, weights, lengths[doc_order], stats)


def build_index(bags: Iterable[tuple[str, Mapping[str, float]]]) -> InvertedIndex:
    """Build an inverted index from ``(doc_id, term -> weight)`` bags.

    Zero weights are dropped; negative weights, weights that are not finite
    as float32 (the precision ``save_index`` stores), duplicate doc ids, and
    doc ids or terms that are not strings are rejected.
    """
    doc_ids: list[str] = []
    vocabulary: dict[str, int] = {}
    postings: list[tuple[int, int, float]] = []
    for ordinal, (doc_id, bag) in enumerate(bags):
        if not isinstance(doc_id, str):
            raise ValidationError(f"document id {doc_id!r} is not a string")
        doc_ids.append(doc_id)
        for term, w in bag.items():
            w = float(w)
            if not 0.0 <= w < _FLOAT32_OVERFLOW:
                raise ValidationError(
                    f"document {doc_id!r}: weight {w!r} for term {term!r} is negative or not finite as a float32"
                )
            if w > 0.0:
                t = vocabulary.get(term)
                if t is None:  # a new term, checked once
                    if not isinstance(term, str):
                        raise ValidationError(f"document {doc_id!r}: term {term!r} is not a string")
                    t = vocabulary[term] = len(vocabulary)
                postings.append((t, ordinal, w))
    columns = np.fromiter(postings, dtype=[("term", np.int64), ("doc", np.int64), ("weight", np.float64)])
    return _from_postings(doc_ids, list(vocabulary), columns["term"], columns["doc"], columns["weight"])


def _resolve(params: LexicalParams | None, stats: CollectionStats | None, index: InvertedIndex):
    params = params if params is not None else DEFAULT_PARAMS
    params.validate()
    return params, (stats if stats is not None else index.stats)


def bm25_score(
    index: InvertedIndex,
    query_terms: Sequence[str],
    doc_id: str,
    params: LexicalParams | None = None,
    stats: CollectionStats | None = None,
) -> float:
    """BM25 score of one document; repeated query terms count with multiplicity."""
    params, stats = _resolve(params, stats, index)
    dl = float(index.doc_lengths[index.ordinal(doc_id)])
    avgdl = stats.avg_doc_length
    length_norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
    score = 0.0
    for term, qw in Counter(query_terms).items():
        tf = index.weight(term, doc_id)
        if tf <= 0:
            continue
        df = stats.doc_freq.get(term, 0)
        idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
        score += qw * idf * (tf / (tf + params.k1 * length_norm))
    return score


def hmm_score(
    index: InvertedIndex,
    query_terms: Sequence[str],
    doc_id: str,
    params: LexicalParams | None = None,
    stats: CollectionStats | None = None,
) -> float:
    """HMM query-likelihood log-probability of one document.

    Returns ``-inf`` when any query term has zero smoothed probability
    (``lambda_ == 1`` and the term is missing from the document, or the term
    is absent from the whole collection).
    """
    params, stats = _resolve(params, stats, index)
    dl = float(index.doc_lengths[index.ordinal(doc_id)])
    lam = params.lambda_
    score = 0.0
    for term, qw in Counter(query_terms).items():
        p_doc = index.weight(term, doc_id) / dl if dl > 0 else 0.0
        p_coll = stats.coll_freq.get(term, 0.0) / stats.total_weight if stats.total_weight > 0 else 0.0
        p = lam * p_doc + (1.0 - lam) * p_coll
        if p <= 0.0:
            return float("-inf")
        score += qw * math.log(p)
    return score


def _softmax(scores: Sequence[float]) -> list[float]:
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def rm3_expand(
    shards: Sequence[InvertedIndex],
    query_terms: Sequence[str],
    params: LexicalParams | None = None,
    scorer: str = "bm25",
    stats: CollectionStats | None = None,
) -> dict[str, float]:
    """RM3 weighted-query expansion from a first pass over the disjoint ``shards`` of one collection.

    Each shard is searched for its top ``rm3_fb_docs`` with ``stats`` (the
    shards' merged statistics when not given). The merged top ``rm3_fb_docs``
    are the feedback documents, each read from the shard that holds it. The
    relevance model is estimated over them in rank order (weighted by softmax
    of their first-pass scores), truncated to the top ``rm3_fb_terms`` terms,
    interpolated with the original maximum-likelihood query model at weight
    ``rm3_alpha``, and renormalized to sum to 1. With no feedback documents
    the original query weights are returned unchanged.
    """
    if not query_terms:
        raise ValidationError("empty query")
    params = params if params is not None else DEFAULT_PARAMS
    params.validate()
    stats = stats if stats is not None else CollectionStats.merge(index.stats for index in shards)
    first_pass = [
        search_lexical(index, query_terms, scorer=scorer, k=params.rm3_fb_docs, params=params, stats=stats)
        for index in shards
    ]
    feedback = merge_shard_results(first_pass, k=params.rm3_fb_docs)
    counts = Counter(query_terms)
    total = sum(counts.values())
    mle = {term: c / total for term, c in counts.items()}
    if not feedback:
        return mle

    relevance: dict[str, float] = {}
    for (doc_id, _), dw in zip(feedback, _softmax([score for _, score in feedback])):
        index = next(index for index in shards if doc_id in index)
        dl = float(index.doc_lengths[index.ordinal(doc_id)])
        for term, w in index.doc_bag(doc_id).items():
            relevance[term] = relevance.get(term, 0.0) + dw * (w / dl)
    kept = dict(
        sorted(relevance.items(), key=lambda item: (-item[1], item[0]))[: params.rm3_fb_terms]
    )

    alpha = params.rm3_alpha
    combined = {
        term: alpha * mle.get(term, 0.0) + (1.0 - alpha) * kept.get(term, 0.0)
        for term in sorted(set(mle) | set(kept))
    }
    norm = sum(combined.values())
    return {term: w / norm for term, w in combined.items() if w > 0.0}


def search_weighted(
    index: InvertedIndex,
    query_weights: Mapping[str, float],
    scorer: str = "bm25",
    k: int = 1000,
    params: LexicalParams | None = None,
    stats: CollectionStats | None = None,
) -> list[tuple[str, float]]:
    """Rank documents matching at least one positively weighted query term.

    Scores term at a time: each query term with a positive weight, in query
    order, adds its contribution to every document's float64 accumulator
    (for HMM, documents without the term add the collection-model log), so
    each score equals the doc-at-a-time sum of ``bm25_score``/``hmm_score``.
    Only documents in a query term's postings are returned, in descending
    score order (ties broken by ascending doc id); ``-inf`` scores are dropped.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not query_weights:
        raise ValidationError("empty query")
    params, stats = _resolve(params, stats, index)
    if scorer not in SCORERS:
        raise ValidationError(f"unknown scorer {scorer!r}; expected one of {SCORERS}")

    lengths, lam, avgdl = index.doc_lengths, params.lambda_, stats.avg_doc_length
    length_norm = 1.0 - params.b + params.b * (lengths / avgdl) if avgdl > 0 else np.ones(len(lengths))
    scores = np.zeros(index.num_docs)
    matched = np.zeros(index.num_docs, dtype=bool)
    for term, qw in query_weights.items():
        if qw <= 0:
            continue
        docs, tf = index.postings(term)
        matched[docs] = True
        if scorer == "bm25":
            df = stats.doc_freq.get(term, 0)
            idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
            scores[docs] += qw * idf * (tf / (tf + params.k1 * length_norm[docs]))
            continue
        # Documents without the term have P(t|D) = 0. Logs are math.log's, as in hmm_score.
        p_coll = stats.coll_freq.get(term, 0.0) / stats.total_weight if stats.total_weight > 0 else 0.0
        p = [(1.0 - lam) * p_coll, *(lam * (tf / lengths[docs]) + (1.0 - lam) * p_coll).tolist()]
        logs = [qw * math.log(x) if x > 0.0 else -math.inf for x in p]
        contribution = np.full(index.num_docs, logs[0])
        contribution[docs] = logs[1:]
        scores += contribution

    hits = np.flatnonzero(matched & np.isfinite(scores))
    top = hits[np.lexsort((hits, -scores[hits]))[:k]]
    return list(zip([index.doc_ids[i] for i in top.tolist()], scores[top].tolist()))


def search_lexical(
    index: InvertedIndex,
    query_terms: Sequence[str],
    scorer: str = "bm25",
    rm3: bool = False,
    k: int = 1000,
    params: LexicalParams | None = None,
    stats: CollectionStats | None = None,
) -> list[tuple[str, float]]:
    """Top-k search; with ``rm3`` the second pass scores the expanded weighted query."""
    if not query_terms:
        raise ValidationError("empty query")
    if rm3:
        stats = stats if stats is not None else index.stats
        weights: Mapping[str, float] = rm3_expand([index], query_terms, params, scorer, stats)
    else:
        weights = Counter(query_terms)
    return search_weighted(index, weights, scorer=scorer, k=k, params=params, stats=stats)


def save_index(index: InvertedIndex, dirpath: str | Path) -> None:
    """Persist the index as its CSR arrays.

    The directory holds ``stats.json`` (format, version and counts),
    ``docs.json`` and ``terms.json`` (the sorted doc ids and terms),
    ``offsets.npy`` (int64, one per term plus one), ``postings.npy`` (int32
    document ordinals) and ``weights.npy`` (float32). Weights are quantized
    to float32; ``load_index`` recomputes document lengths and collection
    statistics from the quantized weights, so index invariants hold exactly.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    stats = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "num_docs": index.num_docs,
        "total_weight": index.stats.total_weight,
        "num_terms": len(index.terms),
    }
    (dirpath / "stats.json").write_text(
        json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for name, names in (("docs.json", index.doc_ids), ("terms.json", index.terms)):
        (dirpath / name).write_text(json.dumps(names, ensure_ascii=False) + "\n", encoding="utf-8")
    np.save(dirpath / "offsets.npy", index.offsets.astype(np.int64))
    np.save(dirpath / "postings.npy", index.docs)
    np.save(dirpath / "weights.npy", index.weights.astype(np.float32))


def _load_strings(path: Path, what: str) -> list[str]:
    with malformed(path, what):
        names = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise FormatError(f"{path}: {what} must be a JSON list of strings")
    return names


def load_index(dirpath: str | Path) -> InvertedIndex:
    """Load a directory written by ``save_index``, checking every array before use."""
    dirpath = Path(dirpath)
    stats_path = dirpath / "stats.json"
    with malformed(stats_path, "index statistics"):
        meta = json.loads(stats_path.read_text(encoding="utf-8"))
        fmt, version = meta.get("format"), meta.get("version")
        num_docs, num_terms = int(meta["num_docs"]), int(meta["num_terms"])
    if fmt != INDEX_FORMAT or version != INDEX_VERSION:
        raise FormatError(f"{dirpath}: unsupported index format {fmt!r} v{version!r}, expected v{INDEX_VERSION}")
    doc_ids = _load_strings(dirpath / "docs.json", "document list")
    terms = _load_strings(dirpath / "terms.json", "term list")
    if (len(doc_ids), len(terms)) != (num_docs, num_terms):
        raise FormatError(f"{dirpath}: docs.json or terms.json disagrees with the counts in stats.json")
    offsets = load_array(dirpath / "offsets.npy", 1, np.integer)
    postings = load_array(dirpath / "postings.npy", 1, np.integer)
    weights = load_array(dirpath / "weights.npy", 1, np.float32)
    ends = len(offsets) == len(terms) + 1 and offsets[0] == 0 and offsets[-1] == len(postings) == len(weights)
    if not ends or not (offsets[1:] > offsets[:-1]).all():
        raise FormatError(
            f"{dirpath}/offsets.npy: expected {len(terms) + 1} offsets rising strictly from 0 to the number of "
            f"postings and weights ({len(postings)}, {len(weights)})"
        )
    if ((postings < 0) | (postings >= len(doc_ids))).any():
        raise FormatError(f"{dirpath}/postings.npy: document ordinals must be in [0, {len(doc_ids)})")
    if not ((weights > 0) & (weights < np.inf)).all():  # NaN fails both comparisons
        raise FormatError(f"{dirpath}/weights.npy: weights must be positive and finite")
    try:
        return _from_postings(doc_ids, terms, np.repeat(np.arange(len(terms)), np.diff(offsets)), postings, weights)
    except ValidationError as exc:  # duplicate ids, terms or postings
        raise FormatError(f"{dirpath}: {exc}") from None
