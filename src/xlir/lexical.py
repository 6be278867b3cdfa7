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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RECORD_ERRORS, FormatError, ValidationError, malformed

INDEX_FORMAT = "xlir-lexical-index"
INDEX_VERSION = 1

SCORERS = ("bm25", "hmm")


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


class InvertedIndex:
    """Immutable term-to-postings index built once from weighted bags."""

    def __init__(
        self,
        postings: dict[str, list[tuple[str, float]]],
        doc_lengths: dict[str, float],
        stats: CollectionStats,
        doc_terms: dict[str, dict[str, float]],
    ):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.stats = stats
        self._doc_terms = doc_terms

    @property
    def num_docs(self) -> int:
        return len(self.doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.doc_lengths

    def weight(self, term: str, doc_id: str) -> float:
        return self._doc_terms.get(doc_id, {}).get(term, 0.0)

    def doc_bag(self, doc_id: str) -> dict[str, float]:
        try:
            return self._doc_terms[doc_id]
        except KeyError:
            raise ValidationError(f"document {doc_id!r} not in index") from None


def build_index(bags: Iterable[tuple[str, Mapping[str, float]]]) -> InvertedIndex:
    """Build an inverted index from ``(doc_id, term -> weight)`` bags.

    Zero weights are dropped; negative or non-finite weights and duplicate
    doc ids are rejected.
    """
    postings: dict[str, list[tuple[str, float]]] = {}
    doc_lengths: dict[str, float] = {}
    doc_terms: dict[str, dict[str, float]] = {}
    for doc_id, bag in bags:
        if doc_id in doc_lengths:
            raise ValidationError(f"duplicate document id {doc_id!r}")
        kept: dict[str, float] = {}
        length = 0.0
        for term, w in bag.items():
            w = float(w)
            if not 0.0 <= w < math.inf:
                raise ValidationError(f"document {doc_id!r}: weight {w!r} for term {term!r} is negative or not finite")
            if w == 0.0:
                continue
            kept[term] = w
            length += w
        doc_lengths[doc_id] = length
        doc_terms[doc_id] = kept
        for term, w in kept.items():
            postings.setdefault(term, []).append((doc_id, w))
    for term in postings:
        postings[term].sort(key=lambda entry: entry[0])
    stats = CollectionStats(
        num_docs=len(doc_lengths),
        total_weight=float(sum(doc_lengths.values())),
        doc_freq={term: len(entries) for term, entries in postings.items()},
        coll_freq={term: float(sum(w for _, w in entries)) for term, entries in postings.items()},
    )
    return InvertedIndex(postings, doc_lengths, stats, doc_terms)


def _resolve(params: LexicalParams | None, stats: CollectionStats | None, index: InvertedIndex):
    params = params if params is not None else DEFAULT_PARAMS
    params.validate()
    return params, (stats if stats is not None else index.stats)


def _bm25_weighted(
    index: InvertedIndex,
    query_weights: Mapping[str, float],
    doc_id: str,
    params: LexicalParams,
    stats: CollectionStats,
) -> float:
    dl = index.doc_lengths.get(doc_id)
    if dl is None:
        raise ValidationError(f"document {doc_id!r} not in index")
    avgdl = stats.avg_doc_length
    length_norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
    score = 0.0
    for term, qw in query_weights.items():
        if qw <= 0:
            continue
        tf = index.weight(term, doc_id)
        if tf <= 0:
            continue
        df = stats.doc_freq.get(term, 0)
        idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
        score += qw * idf * (tf / (tf + params.k1 * length_norm))
    return score


def _hmm_weighted(
    index: InvertedIndex,
    query_weights: Mapping[str, float],
    doc_id: str,
    params: LexicalParams,
    stats: CollectionStats,
) -> float:
    dl = index.doc_lengths.get(doc_id)
    if dl is None:
        raise ValidationError(f"document {doc_id!r} not in index")
    lam = params.lambda_
    score = 0.0
    for term, qw in query_weights.items():
        if qw <= 0:
            continue
        p_doc = index.weight(term, doc_id) / dl if dl > 0 else 0.0
        p_coll = (
            stats.coll_freq.get(term, 0.0) / stats.total_weight if stats.total_weight > 0 else 0.0
        )
        p = lam * p_doc + (1.0 - lam) * p_coll
        if p <= 0.0:
            return float("-inf")
        score += qw * math.log(p)
    return score


_WEIGHTED_SCORERS = {"bm25": _bm25_weighted, "hmm": _hmm_weighted}


def bm25_score(
    index: InvertedIndex,
    query_terms: Sequence[str],
    doc_id: str,
    params: LexicalParams | None = None,
    stats: CollectionStats | None = None,
) -> float:
    """BM25 score of one document; repeated query terms count with multiplicity."""
    params, stats = _resolve(params, stats, index)
    return _bm25_weighted(index, Counter(query_terms), doc_id, params, stats)


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
    return _hmm_weighted(index, Counter(query_terms), doc_id, params, stats)


def _softmax(scores: Sequence[float]) -> list[float]:
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def rm3_expand(
    index: InvertedIndex,
    query_terms: Sequence[str],
    params: LexicalParams | None = None,
    scorer: str = "bm25",
    stats: CollectionStats | None = None,
) -> dict[str, float]:
    """RM3 weighted-query expansion from a first-pass ranking of ``index``.

    The feedback documents are the top ``rm3_fb_docs`` of a plain first pass;
    ``rm3_weights`` turns them into the expanded query.
    """
    if not query_terms:
        raise ValidationError("empty query")
    params, stats = _resolve(params, stats, index)
    feedback = search_lexical(
        index, query_terms, scorer=scorer, rm3=False, k=params.rm3_fb_docs, params=params, stats=stats
    )
    return rm3_weights(query_terms, [(index, doc_id, score) for doc_id, score in feedback], params)


def rm3_weights(
    query_terms: Sequence[str],
    feedback: Sequence[tuple[InvertedIndex, str, float]],
    params: LexicalParams,
) -> dict[str, float]:
    """RM3 query model from ``(index holding the document, doc_id, score)`` feedback.

    The relevance model is estimated over the feedback documents in the order
    given (weighted by softmax of their first-pass scores), truncated to the
    top ``rm3_fb_terms`` terms, interpolated with the original
    maximum-likelihood query model at weight ``rm3_alpha``, and renormalized
    to sum to 1. With no feedback documents the original query weights are
    returned unchanged.
    """
    counts = Counter(query_terms)
    total = sum(counts.values())
    mle = {term: c / total for term, c in counts.items()}
    if not feedback:
        return mle

    doc_weights = _softmax([score for _, _, score in feedback])
    relevance: dict[str, float] = {}
    for (index, doc_id, _), dw in zip(feedback, doc_weights):
        dl = index.doc_lengths[doc_id]
        if dl <= 0:
            continue
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
    """Rank documents matching at least one weighted query term.

    Candidates are drawn from the postings of the query terms, scored fully,
    and returned in descending score order (ties broken by ascending doc id).
    Documents scoring ``-inf`` are dropped.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not query_weights:
        raise ValidationError("empty query")
    params, stats = _resolve(params, stats, index)
    score_fn = _WEIGHTED_SCORERS.get(scorer)
    if score_fn is None:
        raise ValidationError(f"unknown scorer {scorer!r}; expected one of {SCORERS}")

    candidates: set[str] = set()
    for term, qw in query_weights.items():
        if qw <= 0:
            continue
        for doc_id, _ in index.postings.get(term, ()):
            candidates.add(doc_id)

    scored = []
    for doc_id in sorted(candidates):
        score = score_fn(index, query_weights, doc_id, params, stats)
        if math.isfinite(score):
            scored.append((doc_id, score))
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored[:k]


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
        weights: Mapping[str, float] = rm3_expand(index, query_terms, params, scorer, stats)
    else:
        weights = Counter(query_terms)
    return search_weighted(index, weights, scorer=scorer, k=k, params=params, stats=stats)


def save_index(index: InvertedIndex, dirpath: str | Path) -> None:
    """Persist postings and collection statistics to a directory.

    Postings weights are quantized to 32-bit floats; document lengths and
    collection statistics are recomputed from the quantized weights on load
    so that index invariants hold exactly.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    stats = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "num_docs": index.num_docs,
        "total_weight": index.stats.total_weight,
        "num_terms": len(index.postings),
    }
    (dirpath / "stats.json").write_text(
        json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with open(dirpath / "postings.jsonl", "w", encoding="utf-8") as fh:
        for term in sorted(index.postings):
            entries = [[doc_id, float(np.float32(w))] for doc_id, w in index.postings[term]]
            fh.write(json.dumps({"term": term, "postings": entries}, ensure_ascii=False) + "\n")
    doc_ids = sorted(index.doc_lengths)
    (dirpath / "docs.json").write_text(
        json.dumps(doc_ids, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_index(dirpath: str | Path) -> InvertedIndex:
    dirpath = Path(dirpath)
    stats_path = dirpath / "stats.json"
    if not stats_path.exists():
        raise FormatError(f"{dirpath}: missing stats.json")
    with malformed(stats_path, "index statistics"):
        meta = json.loads(stats_path.read_text(encoding="utf-8"))
        fmt, version = meta.get("format"), meta.get("version")
        num_docs = int(meta["num_docs"])
    if fmt != INDEX_FORMAT or version != INDEX_VERSION:
        raise FormatError(f"{dirpath}: unsupported index format {fmt!r} v{version!r}")
    docs_path = dirpath / "docs.json"
    with malformed(docs_path, "document list"):
        bags: dict[str, dict[str, float]] = {
            doc_id: {} for doc_id in json.loads(docs_path.read_text(encoding="utf-8"))
        }
    postings_path = dirpath / "postings.jsonl"
    with open(postings_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                term = record["term"]
                for doc_id, w in record["postings"]:
                    if doc_id not in bags:
                        raise FormatError(f"{postings_path}:{lineno}: unknown document {doc_id!r}")
                    # One chained comparison: NaN, infinities and negative weights fail it,
                    # and a weight that is not a number raises TypeError.
                    if not 0.0 <= w < math.inf:
                        raise FormatError(
                            f"{postings_path}:{lineno}: weight {w!r} of document {doc_id!r} is not a finite, "
                            "non-negative number"
                        )
                    bags[doc_id][term] = w
            except RECORD_ERRORS as exc:
                raise FormatError(
                    f"{postings_path}:{lineno}: malformed postings record ({type(exc).__name__}: {exc})"
                ) from None
    index = build_index(bags.items())
    if index.num_docs != num_docs:
        raise FormatError(
            f"{dirpath}: stats.json declares {num_docs} docs, postings yield {index.num_docs}"
        )
    return index
