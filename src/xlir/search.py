"""One searcher for every index directory: lexical or dense, whole or date-sharded.

A sharded index directory holds ``meta.json`` (format ``xlir-sharded-index``,
the engine and the ordinals of the non-empty shards), the shard plan as
``plan.json``, and one engine index per non-empty shard in ``shard_NNNN/``.
An unsharded index is searched as a single shard with no plan. Every search
selects the shards whose windows meet the date filter, searches each one,
and merges the per-shard lists by raw score; dense passage scores then
aggregate to documents by MaxP.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from . import corpus, dense, lexical, shards
from .errors import FormatError, ValidationError, malformed

logger = logging.getLogger(__name__)

SHARDED_FORMAT = "xlir-sharded-index"
SHARDED_VERSION = 1


def _shard_dir(root: Path, ordinal: int) -> Path:
    return root / f"shard_{ordinal:04d}"


class Searcher:
    """Shards of one engine plus the plan that dates them (``None`` if unsharded).

    Subclasses provide ``search(query, date_filter, k, *, query_id, ...)``
    returning ``(doc_id, score)`` pairs, best first, ties by doc id;
    ``query_id`` only labels log records.
    """

    engine: str

    def __init__(self, indexes: dict[int, Any], plan: shards.ShardPlan | None = None):
        self.indexes = indexes
        self.plan = plan

    @property
    def kind(self) -> str:
        """One of ``lexical``, ``dense``, ``sharded-lexical``, ``sharded-dense``."""
        return self.engine if self.plan is None else f"sharded-{self.engine}"

    def _selected(self, date_filter: shards.DateFilter) -> list[Any]:
        if self.plan is None:
            return list(self.indexes.values())
        ordinals = shards.select_shards(self.plan, date_filter)
        return [self.indexes[o] for o in sorted(ordinals) if o in self.indexes]


class LexicalSearcher(Searcher):
    """PSQ lexical search; every shard scores with the whole collection's statistics."""

    engine = "lexical"

    def __init__(self, indexes: dict[int, lexical.InvertedIndex], plan: shards.ShardPlan | None = None):
        super().__init__(indexes, plan)
        self.stats = lexical.CollectionStats.merge(index.stats for index in indexes.values())

    def search(
        self,
        query: Sequence[str],
        date_filter: shards.DateFilter = shards.DateFilter(),
        k: int = 1000,
        *,
        query_id: str | None = None,
        scorer: str = "bm25",
        rm3: bool = False,
        params: lexical.LexicalParams | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k documents for the query terms; terms absent from the collection are dropped."""
        known = [t for t in query if self.stats.doc_freq.get(t, 0) > 0]
        if len(known) < len(query):
            dropped = len(query) - len(known)
            logger.info("event=query_vocab topic=%s dropped=%d kept=%d", query_id, dropped, len(known))
        if not known:
            return []
        selected = self._selected(date_filter)
        if rm3:
            weights = self._rm3_weights(selected, known, scorer, params or lexical.DEFAULT_PARAMS)
            per_shard = [
                lexical.search_weighted(index, weights, scorer=scorer, k=k, params=params, stats=self.stats)
                for index in selected
            ]
        else:
            per_shard = [
                lexical.search_lexical(index, known, scorer=scorer, k=k, params=params, stats=self.stats)
                for index in selected
            ]
        return shards.merge_shard_results(per_shard, k=k)

    def _rm3_weights(
        self,
        selected: list[lexical.InvertedIndex],
        terms: list[str],
        scorer: str,
        params: lexical.LexicalParams,
    ) -> dict[str, float]:
        """RM3 weights from the merged first pass, each document's bag read from its shard."""
        fb_docs = params.rm3_fb_docs
        first_pass = [
            lexical.search_lexical(index, terms, scorer=scorer, k=fb_docs, params=params, stats=self.stats)
            for index in selected
        ]
        feedback = [
            (next(index for index in selected if doc_id in index), doc_id, score)
            for doc_id, score in shards.merge_shard_results(first_pass, k=fb_docs)
        ]
        return lexical.rm3_weights(terms, feedback, params)


class DenseSearcher(Searcher):
    """Late-interaction passage search, aggregated to documents by MaxP."""

    engine = "dense"

    def search(
        self,
        query: np.ndarray,
        date_filter: shards.DateFilter = shards.DateFilter(),
        k: int = 1000,
        *,
        query_id: str | None = None,
        nprobe: int | None = None,
        candidate_cap: int | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k documents by MaxP over the best ``max(k, candidate_cap)`` passages.

        Each shard searches with the ``nprobe`` and ``candidate_cap`` stored in
        its index unless they are given here.
        """
        selected = self._selected(date_filter)
        given = {"nprobe": nprobe, "candidate_cap": candidate_cap}
        overrides = {name: value for name, value in given.items() if value is not None}
        params = [replace(index.params, **overrides) for index in selected]
        per_shard = [dense.search_dense(index, query, p) for index, p in zip(selected, params)]
        cap = max((p.candidate_cap for p in params), default=k)
        passages = shards.merge_shard_results(per_shard, k=max(k, cap))
        docs = dense.maxp_aggregate((_doc_id("dense", key), score) for key, score in passages)
        return docs[:k]


_ENGINES: dict[str, type[Searcher]] = {"lexical": LexicalSearcher, "dense": DenseSearcher}
# Engine functions are looked up on their modules when called.
_LOAD = {"lexical": lambda path: lexical.load_index(path), "dense": lambda path: dense.load_dense_index(path)}
_SAVE = {
    "lexical": lambda index, path: lexical.save_index(index, path),
    "dense": lambda index, path: dense.save_dense_index(index, path),
}


def _doc_id(engine: str, key: str) -> str:
    return corpus.parse_passage_key(key)[0] if engine == "dense" else key


def open_index(path: str | Path) -> Searcher:
    """Searcher for a lexical, dense, sharded-lexical or sharded-dense index directory."""
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        if (root / "stats.json").exists():
            return LexicalSearcher({0: lexical.load_index(root)})
        raise FormatError(f"{root}: not an index directory")
    with malformed(meta_path, "index metadata"):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        fmt = meta.get("format")
        if fmt == SHARDED_FORMAT:
            if meta.get("version") != SHARDED_VERSION:
                raise FormatError(f"{meta_path}: unsupported sharded index version {meta.get('version')!r}")
            engine = meta["engine"]
            if engine not in _ENGINES:
                raise FormatError(f"{meta_path}: unknown engine {engine!r}")
            ordinals = [int(o) for o in meta["shards"]]
    if fmt == dense.INDEX_FORMAT:
        return DenseSearcher({0: dense.load_dense_index(root)})
    if fmt != SHARDED_FORMAT:
        raise FormatError(f"{root}: unrecognized index format {fmt!r}")
    plan = shards.ShardPlan.load(root / "plan.json")
    if any(not 0 <= o < plan.num_shards for o in ordinals):
        raise FormatError(f"{meta_path}: shard ordinals {ordinals} outside the plan's {plan.num_shards} windows")
    return _ENGINES[engine]({o: _LOAD[engine](_shard_dir(root, o)) for o in ordinals}, plan)


def save_sharded(
    out_dir: str | Path,
    plan: shards.ShardPlan,
    engine: str,
    records: Iterable[tuple[str, Any]],
    build: Callable[[list[tuple[str, Any]]], Any],
) -> list[int]:
    """Write one ``engine`` index per non-empty shard of ``plan``; return their ordinals.

    ``records`` are ``(key, value)`` pairs, grouped by the shard of the key's
    document; ``build(group)`` makes one shard's index. Every document must be
    in the plan, and nothing is written otherwise.
    """
    grouped: dict[int, list[tuple[str, Any]]] = {}
    for key, value in records:
        doc_id = _doc_id(engine, key)
        if doc_id not in plan.assignment:
            raise ValidationError(f"document {doc_id!r} missing from shard plan")
        grouped.setdefault(plan.assignment[doc_id], []).append((key, value))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordinals = sorted(grouped)
    for ordinal in ordinals:
        _SAVE[engine](build(grouped[ordinal]), _shard_dir(out_dir, ordinal))
    plan.save(out_dir / "plan.json")
    meta = {"format": SHARDED_FORMAT, "version": SHARDED_VERSION, "engine": engine, "shards": ordinals}
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return ordinals
