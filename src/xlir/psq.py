"""Probabilistic structured queries: translate document token counts into
query-language weighted term bags at indexing time.

A translation table maps each source-language token to a probability
distribution over query-language tokens (TSV rows ``source<TAB>target<TAB>prob``).
Translating a document turns its token counts into expected counts of
query-language terms, which are then indexed like ordinary documents.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from pathlib import Path

from .errors import FormatError, ValidationError, read_lines, unwritable

# A weighted bag maps each term to a positive expected count.
WeightedBag = dict[str, float]

MASS_TOLERANCE = 1e-6

DEFAULT_CUM_MASS = 0.99
DEFAULT_MAX_ALTS = 64


# source token -> (target token, P(target | source)) pairs, most probable first
TranslationTable = dict[str, list[tuple[str, float]]]

def table_from_rows(rows: Iterable[tuple[str, str, float]]) -> TranslationTable:
    """Group ``(source, target, prob)`` rows into a table; refuse a probability outside (0, 1],
    a repeated ``(source, target)`` pair, or a source whose probabilities sum above 1."""
    grouped: dict[str, dict[str, float]] = {}
    for source, target, prob in rows:
        if not 0.0 < prob <= 1.0:
            raise ValidationError(f"translation row ({source!r}, {target!r}): probability {prob} outside (0, 1]")
        targets = grouped.setdefault(source, {})
        if target in targets:
            raise ValidationError(f"duplicate translation row ({source!r}, {target!r})")
        targets[target] = prob
    table: TranslationTable = {}
    for source, targets in grouped.items():
        mass = math.fsum(targets.values())  # exact, so the check cannot depend on row order
        if mass > 1.0 + MASS_TOLERANCE:
            raise ValidationError(f"source {source!r}: translation probabilities sum to {mass:.6f} > 1")
        table[source] = sorted(targets.items(), key=lambda item: (-item[1], item[0]))
    return table


def load_table(path: str | Path) -> TranslationTable:
    """Load a TSV translation table, validating probabilities row by row; every refusal names
    ``path``, and a row's own fault or repeat its line as well."""
    rows: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
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
        if (source, target) in seen:
            raise FormatError(f"{path}:{lineno}: duplicate translation row ({source!r}, {target!r})")
        seen.add((source, target))
        rows.append((source, target, prob))
    try:
        return table_from_rows(rows)
    except ValidationError as exc:  # a source whose probabilities sum above 1
        raise FormatError(f"{path}: {exc}") from None


def write_table(path: str | Path, table: TranslationTable) -> None:
    """Write ``table`` as TSV rows in (source, target) order; refuse, before opening ``path``, a
    token ``load_table`` could not read back."""
    tokens = [token for source, targets in table.items() for token in (source, *(target for target, _ in targets))]
    bad = unwritable(tokens, "\t\n\r")  # the table's separators
    if bad is not None:
        raise ValidationError(
            f"translation table token {tokens[bad]!r}: expected a string with no tab, line break or lone surrogate"
        )
    rows = sorted((source, target, prob) for source, targets in table.items() for target, prob in targets)
    with open(path, "w", encoding="utf-8") as fh:
        for source, target, prob in rows:
            fh.write(f"{source}\t{target}\t{prob}\n")


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
    pruned: TranslationTable = {}
    for source, targets in table.items():
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
    return pruned


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
        targets = table.get(source)
        if targets is None:
            continue
        for target, prob in targets:
            bag[target] = bag.get(target, 0.0) + count * prob
    return bag
