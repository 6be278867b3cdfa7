"""Probabilistic structured queries: translate document token counts into
query-language weighted term bags at indexing time.

A translation table maps each source-language token to a probability
distribution over query-language tokens (TSV rows ``source<TAB>target<TAB>prob``).
Translating a document turns its token counts into expected counts of
query-language terms, which are then indexed like ordinary documents.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, ValidationError, read_lines

# A weighted bag maps each term to a positive expected count.
WeightedBag = dict[str, float]

MASS_TOLERANCE = 1e-6

DEFAULT_CUM_MASS = 0.99
DEFAULT_MAX_ALTS = 64


@dataclass
class TranslationTable:
    """Per-source distributions over target tokens, sorted by descending probability."""

    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows: list[tuple[str, str, float]]) -> "TranslationTable":
        grouped: dict[str, dict[str, float]] = {}
        for source, target, prob in rows:
            targets = grouped.setdefault(source, {})
            if target in targets:
                raise ValidationError(f"duplicate translation row ({source!r}, {target!r})")
            targets[target] = prob
        entries: dict[str, list[tuple[str, float]]] = {}
        for source, targets in grouped.items():
            mass = sum(targets.values())
            if mass > 1.0 + MASS_TOLERANCE:
                raise ValidationError(
                    f"source {source!r}: translation probabilities sum to {mass:.6f} > 1"
                )
            entries[source] = sorted(targets.items(), key=lambda item: (-item[1], item[0]))
        return cls(entries=entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, source: str) -> bool:
        return source in self.entries

    def __getitem__(self, source: str) -> list[tuple[str, float]]:
        return self.entries[source]


def load_table(path: str | Path) -> TranslationTable:
    """Load a TSV translation table, validating probabilities row by row."""
    rows: list[tuple[str, str, float]] = []
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        source, target, prob_text = parts
        try:
            prob = float(prob_text)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric probability {prob_text!r}") from None
        if not 0.0 < prob <= 1.0:
            raise FormatError(f"{path}:{lineno}: probability {prob} outside (0, 1]")
        rows.append((source, target, prob))
    return TranslationTable.from_rows(rows)


def prune_table(
    table: TranslationTable,
    cum_mass: float = DEFAULT_CUM_MASS,
    max_alts: int = DEFAULT_MAX_ALTS,
) -> TranslationTable:
    """Keep the highest-probability targets per source and renormalize.

    Entries are kept in descending-probability order until their cumulative
    mass reaches ``cum_mass`` or ``max_alts`` entries are kept; the kept
    probabilities are rescaled to sum to 1.
    """
    if not 0.0 < cum_mass <= 1.0:
        raise ValidationError(f"cum_mass must be in (0, 1], got {cum_mass}")
    if max_alts < 1:
        raise ValidationError(f"max_alts must be >= 1, got {max_alts}")
    pruned: dict[str, list[tuple[str, float]]] = {}
    for source, targets in table.entries.items():
        kept: list[tuple[str, float]] = []
        mass = 0.0
        for target, prob in targets:
            kept.append((target, prob))
            mass += prob
            if mass >= cum_mass or len(kept) == max_alts:
                break
        if not kept:
            continue
        pruned[source] = [(target, prob / mass) for target, prob in kept]
    return TranslationTable(entries=pruned)


def translate_doc(doc_tokens: Mapping[str, float], table: TranslationTable) -> WeightedBag:
    """Expected query-language term counts for a document's token counts.

    weight(t) = sum over source tokens of count(source) * P(t | source).
    Source tokens absent from the table contribute nothing; accumulation is
    in 64-bit floats.
    """
    bag: WeightedBag = {}
    for source, count in doc_tokens.items():
        if count <= 0:
            continue
        targets = table.entries.get(source)
        if targets is None:
            continue
        for target, prob in targets:
            bag[target] = bag.get(target, 0.0) + count * prob
    return bag
