"""One searcher per index directory, lexical or dense, with topic date filters as masks.

An index directory holds one lexical or one dense index over a whole
collection. Given a shard plan, ``open_index`` maps each indexed document
(lexical) or passage (dense, through its document) to its plan window once.
A topic's date filter then selects windows with ``shards.select_shards``, and
the selection becomes a boolean mask over document or passage ordinals that
the engine applies before its top-k cut. With no plan, an empty filter or a
filter that admits every window there is no mask, and search runs unmasked.
Dense passage scores aggregate to documents by MaxP.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from . import corpus, dense, lexical, shards
from .errors import FormatError, ValidationError

logger = logging.getLogger(__name__)


class Searcher:
    """One engine index plus the plan that dates its documents (``None`` if undated).

    Subclasses provide ``search(query, date_filter, k, *, query_id, ...)``
    returning ``(doc_id, score)`` pairs, best first, ties by doc id;
    ``query_id`` only labels log records.
    """

    engine: str

    def __init__(self, index: Any, plan: shards.ShardPlan | None = None):
        self.index = index
        self.plan = plan
        if plan is not None:
            windows = []
            for doc_id in self._doc_ids():
                if doc_id not in plan.assignment:
                    raise ValidationError(f"{plan.source}: indexed document {doc_id!r} missing from shard plan")
                windows.append(plan.assignment[doc_id])
            self._windows = np.array(windows, dtype=np.int64)

    def _doc_ids(self) -> Sequence[str]:
        """The document of each ordinal the engine ranks."""
        raise NotImplementedError

    def _allowed(self, date_filter: corpus.DateFilter) -> np.ndarray | None:
        """Which ordinals the filter admits; ``None`` when it admits them all."""
        if self.plan is None or date_filter.empty:
            return None
        selected = shards.select_shards(self.plan, date_filter)
        if len(selected) == self.plan.num_shards:
            return None
        return np.isin(self._windows, sorted(selected))


class LexicalSearcher(Searcher):
    """PSQ lexical search; a date filter masks documents, never the collection statistics."""

    engine = "lexical"

    def _doc_ids(self) -> Sequence[str]:
        return self.index.doc_ids

    def search(
        self,
        query: Sequence[str],
        date_filter: corpus.DateFilter = corpus.DateFilter(),
        k: int = 1000,
        *,
        query_id: str | None = None,
        scorer: str = "bm25",
        rm3: bool = False,
        params: lexical.LexicalParams | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k documents for the query terms; terms absent from the collection are dropped."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        known = [t for t in query if self.index.row(t) is not None]
        if len(known) < len(query):
            dropped = len(query) - len(known)
            logger.info("event=query_vocab topic=%s dropped=%d kept=%d", query_id, dropped, len(known))
        if not known:
            return []
        allowed = self._allowed(date_filter)
        return lexical.search_lexical(self.index, known, scorer=scorer, rm3=rm3, k=k, params=params, allowed=allowed)


class DenseSearcher(Searcher):
    """Late-interaction passage search, aggregated to documents by MaxP.

    Every passage key is parsed once, when the searcher opens, into a map from
    passage key to document id; a malformed key is refused then.
    """

    engine = "dense"

    def __init__(self, index: dense.DenseIndex, plan: shards.ShardPlan | None = None):
        self._doc_of = {key: corpus.parse_passage_key(key)[0] for key in index.keys}
        super().__init__(index, plan)

    def _doc_ids(self) -> Sequence[str]:
        # Keys are distinct, so the map lists one document per passage, in ordinal order.
        return list(self._doc_of.values())

    def search(
        self,
        query: np.ndarray,
        date_filter: corpus.DateFilter = corpus.DateFilter(),
        k: int = 1000,
        *,
        query_id: str | None = None,
        nprobe: int | None = None,
        candidate_cap: int | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k documents by MaxP over the best ``candidate_cap`` admitted passages.

        The search uses the ``nprobe`` and ``candidate_cap`` stored in the
        index unless they are given here.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        given = {"nprobe": nprobe, "candidate_cap": candidate_cap}
        params = replace(self.index.params, **{name: value for name, value in given.items() if value is not None})
        passages = dense.search_dense(self.index, query, params, allowed=self._allowed(date_filter))
        docs = dense.maxp_aggregate((self._doc_of[key], score) for key, score in passages)
        return docs[:k]


def index_engine(path: Path) -> str:
    """``"dense"`` or ``"lexical"``: which engine's index the directory holds."""
    if (path / "meta.json").exists():
        return "dense"
    if (path / "stats.json").exists():
        return "lexical"
    raise FormatError(f"{path}: not an index directory")


def open_index(path: str | Path, plan: shards.ShardPlan | None = None) -> Searcher:
    """Searcher for a lexical or dense index directory, dated by ``plan`` if one is given.

    Every indexed document must be in the plan; plan entries for documents
    outside the index are ignored.
    """
    root = Path(path)
    # Engine functions are looked up on their modules when called.
    if index_engine(root) == "dense":
        return DenseSearcher(dense.load_dense_index(root), plan)
    return LexicalSearcher(lexical.load_index(root), plan)
