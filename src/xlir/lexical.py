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
``InvertedIndex``); search, RM3 and the collection statistics read the
same arrays. On disk an index directory holds these arrays as ``.npy``
files (offsets, document ordinals and float32 weights) beside JSON lists of
doc ids and terms (see ``save_index``), and ``load_index`` checks them with
array operations.

Date filters: search and RM3 take an optional ``allowed`` mask over document
ordinals. It removes documents before the top-k cut and never changes the
collection statistics, so every masked score equals ``bm25_score`` or
``hmm_score`` on that document of the whole index.

Summation order: search scores term at a time, adding each query term's
contributions to one float64 accumulator per document. Every document
therefore adds the same terms in the same order (query order) as
``bm25_score``/``hmm_score`` add them for that document alone, and logs are
taken with ``math.log`` in both (``np.log`` can differ in the last bit), so a
searched score equals the per-document score exactly. Search reads each
posting's impact (BM25's ``tf / (tf + k1 * length_norm)``, HMM's
``ln(lambda * P(t|D) + (1 - lambda) * P(t|C))``) from an array computed once
per index and parameter set, with the same expression and ``math.log``, and
scales it by the query weight. Document lengths, collection frequencies and
the total weight are likewise summed one element after another, never
pairwise.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import LONE_SURROGATE, FormatError, ValidationError, json_int, load_array, malformed, unwritable

logger = logging.getLogger(__name__)

INDEX_FORMAT = "xlir-lexical-index"
INDEX_VERSION = 2

SCORERS = ("bm25", "hmm")

# float32 rounds weights from _FLOAT32_OVERFLOW up to inf, and up to _FLOAT32_UNDERFLOW (a tie to even) to 0.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103
_FLOAT32_UNDERFLOW = 2.0**-150


@dataclass(frozen=True)
class LexicalParams:
    """Scoring and feedback parameters, checked when the set is made.

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

    def __post_init__(self) -> None:
        if not 0.0 <= self.k1 < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 < self.lambda_ <= 1.0:
            raise ValidationError(f"lambda must be in (0, 1], got {self.lambda_}")
        for name in ("rm3_fb_docs", "rm3_fb_terms"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.rm3_alpha <= 1.0:
            raise ValidationError(f"rm3_alpha must be in [0, 1], got {self.rm3_alpha}")


DEFAULT_PARAMS = LexicalParams()


@dataclass(eq=False, frozen=True)
class InvertedIndex:
    """Immutable index holding each posting once, in compressed sparse rows.

    Invariants:

    * ``doc_ids`` and ``terms`` are sorted and unique; a document's ordinal
      is its position in ``doc_ids``.
    * ``offsets`` has ``len(terms) + 1`` entries, starts at 0, ends at
      ``len(docs)`` and strictly increases: every term has a posting.
    * The postings of ``terms[t]`` are ``docs[offsets[t]:offsets[t + 1]]``
      (ordinals, strictly increasing, in the narrowest unsigned dtype that
      holds ``num_docs - 1``, as stored) with the matching ``weights``
      (float64, positive and finite as float32).
    * ``doc_lengths[i]`` is the sum of document ``i``'s weights,
      ``coll_freq[t]`` (float64) the sum of ``terms[t]``'s weights and
      ``total_weight`` the sum of every weight; a term's document frequency
      is ``offsets[t + 1] - offsets[t]``.

    There is no per-term table of statistics. Search keeps one array of
    per-posting impacts for each scorer, for the parameters it last searched
    with (see ``_impacts``). ``doc_bag`` and RM3 read a document's postings
    from a document-major copy of them, built on first use (see
    ``_by_doc``).
    """

    doc_ids: list[str]
    terms: list[str]
    offsets: np.ndarray
    docs: np.ndarray
    weights: np.ndarray
    doc_lengths: np.ndarray
    coll_freq: np.ndarray
    total_weight: float
    _impacts: dict[str, tuple[object, np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        return self.total_weight / self.num_docs if self.num_docs else 0.0

    def __contains__(self, doc_id: str) -> bool:
        i = bisect_left(self.doc_ids, doc_id)
        return i < len(self.doc_ids) and self.doc_ids[i] == doc_id

    def ordinal(self, doc_id: str) -> int:
        if doc_id not in self:
            raise ValidationError(f"document {doc_id!r} not in index")
        return bisect_left(self.doc_ids, doc_id)

    def row(self, term: str) -> int | None:
        """The row of ``term`` in ``terms`` and the CSR arrays; ``None`` when no document holds it."""
        t = bisect_left(self.terms, term)
        return t if t < len(self.terms) and self.terms[t] == term else None

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Document ordinals and weights of one term (views of the CSR arrays); empty for an unknown term."""
        return self._term(term)[:2]

    def _term(self, term: str) -> tuple[np.ndarray, np.ndarray, float]:
        """``postings(term)`` and the term's collection frequency, from one lookup of its row."""
        t = self.row(term)
        start, end, cf = (*self.offsets[t : t + 2], self.coll_freq[t]) if t is not None else (0, 0, 0.0)
        return self.docs[start:end], self.weights[start:end], float(cf)

    def weight(self, term: str, doc_id: str) -> float:
        docs, weights = self.postings(term)
        return float(weights[docs == self.ordinal(doc_id)].sum())

    def doc_bag(self, doc_id: str) -> dict[str, float]:
        """A document's terms and weights, in term order; empty for a document with no postings."""
        offsets, rows, weights = self._by_doc
        i = self.ordinal(doc_id)
        start, end = offsets[i], offsets[i + 1]
        return dict(zip([self.terms[t] for t in rows[start:end].tolist()], weights[start:end].tolist()))

    @cached_property
    def _by_doc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The postings in document-major order: per-document offsets, term rows (int32) and weights.

        Document ``i``'s postings are ``rows[offsets[i]:offsets[i + 1]]``, in
        term order, with the matching float64 ``weights``: one stable sort of
        ``docs`` reorders the term-major arrays, 12 bytes a posting. Built on
        first use and never changed; threads that build it at once each
        return a whole copy.
        """
        order = np.argsort(self.docs, kind="stable")
        rows = np.repeat(np.arange(len(self.terms), dtype=np.int32), np.diff(self.offsets))[order]
        offsets = np.zeros(self.num_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.docs, minlength=self.num_docs), out=offsets[1:])
        return offsets, rows, self.weights[order]


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
    docs = docs[order].astype(np.min_scalar_type(max(len(doc_ids) - 1, 0)))
    rows, weights = rows[order], weights[order]
    if ((rows[1:] == rows[:-1]) & (docs[1:] == docs[:-1])).any():
        raise ValidationError("a term has two postings for one document")
    offsets = np.searchsorted(rows, np.arange(len(terms) + 1))
    coll_freq = np.bincount(rows, weights=weights, minlength=len(terms))
    return InvertedIndex(doc_ids, terms, offsets, docs, weights, lengths[doc_order], coll_freq, total_weight)


def build_index(bags: Iterable[tuple[str, Mapping[str, float]]]) -> InvertedIndex:
    """Build an inverted index from ``(doc_id, term -> weight)`` bags.

    Weights that are zero as float32 (the precision ``save_index`` stores),
    such as 1e-46, are dropped like zero weights; negative weights, weights
    that are not finite as float32, duplicate doc ids, and doc ids or terms
    that are not strings, or hold a lone surrogate, are rejected.
    """
    doc_ids: list[str] = []
    vocabulary: dict[str, int] = {}
    postings: list[tuple[int, int, float]] = []
    for ordinal, (doc_id, bag) in enumerate(bags):
        doc_ids.append(doc_id)
        for term, w in bag.items():
            w = float(w)
            if not 0.0 <= w < _FLOAT32_OVERFLOW:
                raise ValidationError(
                    f"document {doc_id!r}: weight {w!r} for term {term!r} is negative or not finite as a float32"
                )
            if w > _FLOAT32_UNDERFLOW:
                t = vocabulary.get(term)
                if t is None:
                    t = vocabulary[term] = len(vocabulary)
                postings.append((t, ordinal, w))
    terms = list(vocabulary)
    bad = unwritable(doc_ids)
    if bad is not None:
        reason = LONE_SURROGATE if isinstance(doc_ids[bad], str) else "is not a string"
        raise ValidationError(f"document id {doc_ids[bad]!r} {reason}")
    bad = unwritable(terms)
    if bad is not None and isinstance(terms[bad], str):
        raise ValidationError(f"term {terms[bad]!r} {LONE_SURROGATE}")
    if bad is not None:  # named with the document it first came in
        doc_id = doc_ids[next(doc for t, doc, _ in postings if t == bad)]
        raise ValidationError(f"document {doc_id!r}: term {terms[bad]!r} is not a string")
    columns = np.fromiter(postings, dtype=[("term", np.int64), ("doc", np.int64), ("weight", np.float64)])
    return _from_postings(doc_ids, terms, columns["term"], columns["doc"], columns["weight"])


def _resolve(params: LexicalParams | None) -> LexicalParams:
    return params if params is not None else DEFAULT_PARAMS


def bm25_score(
    index: InvertedIndex, query_terms: Sequence[str], doc_id: str, params: LexicalParams | None = None
) -> float:
    """BM25 score of one document; repeated query terms count with multiplicity."""
    params = _resolve(params)
    ordinal = index.ordinal(doc_id)
    dl = float(index.doc_lengths[ordinal])
    avgdl = index.avg_doc_length
    length_norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
    score = 0.0
    for term, qw in Counter(query_terms).items():
        docs, weights, _ = index._term(term)
        tf = float(weights[docs == ordinal].sum())
        if tf <= 0:
            continue
        df = len(docs)
        idf = math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
        score += qw * idf * (tf / (tf + params.k1 * length_norm))
    return score


def hmm_score(
    index: InvertedIndex, query_terms: Sequence[str], doc_id: str, params: LexicalParams | None = None
) -> float:
    """HMM query-likelihood log-probability of one document.

    Returns ``-inf`` when any query term has zero smoothed probability
    (``lambda_ == 1`` and the term is missing from the document, or the term
    is absent from the whole collection).
    """
    params = _resolve(params)
    ordinal = index.ordinal(doc_id)
    dl = float(index.doc_lengths[ordinal])
    lam, total = params.lambda_, index.total_weight
    score = 0.0
    for term, qw in Counter(query_terms).items():
        docs, weights, cf = index._term(term)
        p_doc = float(weights[docs == ordinal].sum()) / dl if dl > 0 else 0.0
        p_coll = cf / total if total > 0 else 0.0
        p = lam * p_doc + (1.0 - lam) * p_coll
        if p <= 0.0:
            return float("-inf")
        score += qw * math.log(p)
    return score


def _impacts(index: InvertedIndex, scorer: str, params: LexicalParams) -> np.ndarray:
    """Each posting's impact under ``scorer``, aligned with ``index.docs``.

    BM25's is ``tf / (tf + k1 * length_norm)`` and HMM's the log of the
    smoothed probability, each as ``bm25_score``/``hmm_score`` compute it for
    one document. The array is cached on the index under the parameters the
    scorer reads, and replaced when they change. The entry is one
    ``(parameters, array)`` pair, read once, so threads that search at once
    may compute an array twice but never score with another's parameters.
    """
    key = (params.k1, params.b) if scorer == "bm25" else params.lambda_
    cached = index._impacts.get(scorer)
    if cached is not None and cached[0] == key:
        return cached[1]
    tf, lengths, avgdl, total = index.weights, index.doc_lengths, index.avg_doc_length, index.total_weight
    if scorer == "bm25":
        length_norm = 1.0 - params.b + params.b * (lengths / avgdl) if avgdl > 0 else np.ones(len(lengths))
        impacts = tf / (tf + params.k1 * length_norm[index.docs])
    else:
        lam = params.lambda_
        p_coll = index.coll_freq / total if total > 0 else np.zeros(len(index.terms))
        p = lam * (tf / lengths[index.docs]) + (1.0 - lam) * np.repeat(p_coll, np.diff(index.offsets))
        logs = (math.log(x) if x > 0.0 else -math.inf for x in p.tolist())
        impacts = np.fromiter(logs, np.float64, len(p))
    index._impacts[scorer] = (key, impacts)
    return impacts


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
    allowed: np.ndarray | None = None,
) -> dict[str, float]:
    """RM3 weighted-query expansion from a first pass over the documents ``allowed`` admits.

    The feedback documents are the top ``rm3_fb_docs`` of that first pass.
    The relevance model is estimated over them in rank order (weighted by
    softmax of their first-pass scores), truncated to the top
    ``rm3_fb_terms`` terms, interpolated with the original maximum-likelihood
    query model at weight ``rm3_alpha``, and renormalized to sum to 1. With
    no feedback documents the original query weights are returned unchanged.
    """
    params = _resolve(params)
    counts = Counter(query_terms)
    feedback = search_weighted(index, counts, scorer=scorer, k=params.rm3_fb_docs, params=params, allowed=allowed)
    total = sum(counts.values())
    mle = {term: c / total for term, c in counts.items()}
    if not feedback:
        return mle

    # Each term row sums its feedback documents in rank order, as a dictionary summed document by
    # document would (a document holds each term once). Touched rows are ranked even when their sum
    # underflows to 0.0; a stable sort over them, in term order, breaks ties by term.
    offsets, rows, weights = index._by_doc
    relevance = np.zeros(len(index.terms))
    touched = np.zeros(len(index.terms), dtype=bool)
    for (doc_id, _), dw in zip(feedback, _softmax([score for _, score in feedback])):
        i = index.ordinal(doc_id)
        start, end, dl = offsets[i], offsets[i + 1], float(index.doc_lengths[i])
        doc_rows = rows[start:end]
        relevance[doc_rows] += dw * (weights[start:end] / dl)
        touched[doc_rows] = True
    candidates = np.flatnonzero(touched)
    top = candidates[np.argsort(-relevance[candidates], kind="stable")[: params.rm3_fb_terms]]
    kept = dict(zip([index.terms[t] for t in top.tolist()], relevance[top].tolist()))

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
    allowed: np.ndarray | None = None,
) -> list[tuple[str, float]]:
    """Rank documents matching at least one positively weighted query term.

    Scores term at a time: each query term with a positive weight, in query
    order, adds its contribution to every document's float64 accumulator
    (for HMM, documents without the term add the collection-model log), so
    each score equals the doc-at-a-time sum of ``bm25_score``/``hmm_score``.
    Only documents in a query term's postings, and admitted by the boolean
    mask ``allowed`` over document ordinals when one is given, are returned,
    in descending score order (ties broken by ascending doc id); ``-inf``
    scores are dropped. A weight that is not finite is refused.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not query_weights:
        raise ValidationError("empty query")
    for term, qw in query_weights.items():
        if not math.isfinite(qw):
            raise ValidationError(f"query term {term!r} has weight {qw!r}; weights must be finite")
    params = _resolve(params)
    if scorer not in SCORERS:
        raise ValidationError(f"unknown scorer {scorer!r}; expected one of {SCORERS}")
    if allowed is not None and (allowed.dtype != bool or allowed.shape != (index.num_docs,)):
        raise ValidationError(f"allowed must be a boolean mask over the index's {index.num_docs} documents")

    impacts, total = _impacts(index, scorer, params), index.total_weight
    scores = np.zeros(index.num_docs)
    matched = np.zeros(index.num_docs, dtype=bool)
    for term, qw in query_weights.items():
        if qw <= 0:
            continue
        t = index.row(term)
        start, end = (int(index.offsets[t]), int(index.offsets[t + 1])) if t is not None else (0, 0)
        docs = index.docs[start:end]
        matched[docs] = True
        if scorer == "bm25":
            df = end - start
            idf = math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
            scores[docs] += qw * idf * impacts[start:end]
            continue
        # Documents without the term have P(t|D) = 0. Logs are math.log's, as in hmm_score.
        background = (1.0 - params.lambda_) * (float(index.coll_freq[t]) / total if t is not None else 0.0)
        contribution = np.full(index.num_docs, qw * math.log(background) if background > 0.0 else -math.inf)
        contribution[docs] = qw * impacts[start:end]
        scores += contribution

    if allowed is not None:
        matched &= allowed
    # Hits come in ordinal order, so a stable sort breaks ties by ordinal, which is doc id order.
    hits = np.flatnonzero(matched & np.isfinite(scores))
    top = hits[np.argsort(-scores[hits], kind="stable")[:k]]
    return list(zip([index.doc_ids[i] for i in top.tolist()], scores[top].tolist()))


def search_lexical(
    index: InvertedIndex,
    query_terms: Sequence[str],
    scorer: str = "bm25",
    rm3: bool = False,
    k: int = 1000,
    params: LexicalParams | None = None,
    allowed: np.ndarray | None = None,
) -> list[tuple[str, float]]:
    """Top-k search among the documents ``allowed`` admits (all when ``None``);
    with ``rm3`` the second pass scores the expanded weighted query."""
    weights = rm3_expand(index, query_terms, params, scorer, allowed) if rm3 else Counter(query_terms)
    return search_weighted(index, weights, scorer=scorer, k=k, params=params, allowed=allowed)


def save_index(index: InvertedIndex, dirpath: str | Path) -> None:
    """Persist the index as its CSR arrays.

    The directory holds ``stats.json`` (format, version and counts),
    ``docs.json`` and ``terms.json`` (the sorted doc ids and terms),
    ``offsets.npy`` (int64, one per term plus one), ``postings.npy`` (the
    document ordinals as held, uint8 up to 256 documents and uint16 up to
    65,536) and ``weights.npy`` (float32). ``load_index`` reads ordinals of
    any integer dtype, such as int32 as written before, into the held dtype.
    Weights are quantized to float32; ``load_index`` recomputes document
    lengths and collection statistics from the quantized weights, so index
    invariants hold exactly.
    Logs ``event=lexical_index_save`` with the bytes of the three arrays
    written (their data, without ``.npy`` headers or the JSON files) and the
    number of postings.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    stats = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "num_docs": index.num_docs,
        "total_weight": index.total_weight,
        "num_terms": len(index.terms),
    }
    (dirpath / "stats.json").write_text(
        json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for name, names in (("docs.json", index.doc_ids), ("terms.json", index.terms)):
        (dirpath / name).write_text(json.dumps(names, ensure_ascii=False) + "\n", encoding="utf-8")
    arrays = {
        "offsets.npy": index.offsets.astype(np.int64),
        "postings.npy": index.docs,
        "weights.npy": index.weights.astype(np.float32),
    }
    for filename, array in arrays.items():
        np.save(dirpath / filename, array)
    size = sum(array.nbytes for array in arrays.values())
    logger.info("event=lexical_index_save bytes=%d postings=%d", size, len(index.docs))


def _load_strings(path: Path, what: str) -> list[str]:
    with malformed(path, what):
        names = json.loads(path.read_text(encoding="utf-8"))
    bad = unwritable(names) if isinstance(names, list) else None
    if not isinstance(names, list) or (bad is not None and not isinstance(names[bad], str)):
        raise FormatError(f"{path}: {what} must be a JSON list of strings")
    if bad is not None:
        raise FormatError(f"{path}: {what} entry {names[bad]!r} {LONE_SURROGATE}")
    return names


def load_index(dirpath: str | Path) -> InvertedIndex:
    """Load a directory written by ``save_index``, checking every array before use."""
    dirpath = Path(dirpath)
    stats_path = dirpath / "stats.json"
    with malformed(stats_path, "index statistics"):
        meta = json.loads(stats_path.read_text(encoding="utf-8"))
        fmt, version = meta.get("format"), meta.get("version")
        num_docs, num_terms = (json_int(meta[name], stats_path, name) for name in ("num_docs", "num_terms"))
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
