"""Per-layer metrics from the spans and ``event=`` records of a traced run.

A unit is what a span's query id names: a set-up (``setup-N``), a query
(``qN:topic:config``) or a pipeline pass (``pass-N``). Set-up and pass metrics
are sums over one unit, reported as the median over units; call metrics are
medians over calls. Only the outermost call into a module counts, so a
``build_index`` made inside ``load_index`` is not counted as a build. A
span's self time is its duration minus that of its child spans.

A metric whose spans or event fields are absent is left out, never zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric -> span summed over each set-up or pass, in seconds
UNIT_SECONDS = {
    "corpus.ingest_s": "corpus.ingest_collection",
    "psq.load_table_s": "psq.load_table",
    "psq.translate_s": "psq.translate_doc",
    "lexical.build_s": "lexical.build_index",
    "lexical.save_s": "lexical.save_index",
    "lexical.load_s": "lexical.load_index",
    "dense.load_embeddings_s": "dense.load_embeddings",
    "dense.build_s": "dense.build_dense_index",
    "dense.save_s": "dense.save_dense_index",
    "dense.load_s": "dense.load_dense_index",
}
# metric -> (event, field) summed over each set-up or pass
UNIT_EVENT_SUMS = {
    "dense.train_ms": ("dense_index_build", "train_ms"),
    "dense.compress_ms": ("dense_index_build", "compress_ms"),
}
# metric -> span, median duration per call in milliseconds
CALL_MS = {
    "dense.search_ms": "dense.search_dense",
    "dense.maxp_ms": "dense.maxp_aggregate",
    "shards.fuse_ms": "shards.fuse_multilingual",
    "evaluation.evaluate_ms": "evaluation.evaluate",
}
# metric -> (event, field), median per record
EVENT_MEDIANS = {
    "dense.stage1_ms": ("dense_search", "stage1_ms"),
    "dense.stage2_ms": ("dense_search", "stage2_ms"),
    "dense.stage3_ms": ("dense_search", "stage3_ms"),
    "dense.probed_centroids": ("dense_search", "probed_centroids"),
    "dense.candidates": ("dense_search", "candidates"),
    "dense.scored": ("dense_search", "scored"),
}


def _kind(qid: str | None) -> str | None:
    if qid is None:
        return None
    if qid.startswith(("setup-", "pass-")):
        return "unit"
    return "query"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


class Trace:
    def __init__(self, dumps: list[dict]):
        self.spans: list[dict] = []
        self.events: list[dict] = []
        for dump in dumps:
            offset = len(self.spans)
            for span in dump["spans"]:
                parent = span["parent"] + offset if span["parent"] >= 0 else -1
                self.spans.append({**span, "parent": parent, "ms": (span["end"] - span["start"]) * 1e3})
            for event in dump["events"]:
                self.events.append({**event, "span": event["span"] + offset if event["span"] >= 0 else -1})
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] >= 0:
                child_ms[span["parent"]] += span["ms"]
        for span, children in zip(self.spans, child_ms):
            span["self_ms"] = span["ms"] - children
            span["module"] = span["name"].split(".", 1)[0]
        self.units = sorted({s["qid"] for s in self.spans if _kind(s["qid"]) == "unit"})
        self.queries = sorted({s["qid"] for s in self.spans if _kind(s["qid"]) == "query"})

    def entries(self, name: str) -> list[dict]:
        """Outermost calls of ``name``: not made from inside the same module."""
        return [
            s
            for s in self.spans
            if s["name"] == name and (s["parent"] < 0 or self.spans[s["parent"]]["module"] != s["module"])
        ]

    def per_unit(self, spans: list[dict], value) -> list[float] | None:
        if not spans:
            return None
        totals = dict.fromkeys(self.units, 0.0)
        for span in spans:
            if span["qid"] in totals:
                totals[span["qid"]] += value(span)
        return list(totals.values()) or None

    def event_values(self, event: str, field: str, kind: str | None = None) -> list[float]:
        return [
            e[field]
            for e in self.events
            if e.get("event") == event and isinstance(e.get(field), float) and (kind is None or _kind(e["qid"]) == kind)
        ]


def layer_metrics(trace: Trace, context: dict) -> dict[str, float]:
    """Metric name -> value. ``context`` adds what spans cannot hold: the
    passage count, index bytes, oracle overlap, import times and the traced
    and untraced query latencies."""
    median = statistics.median
    metrics: dict[str, float] = {}

    for metric, name in UNIT_SECONDS.items():
        sums = trace.per_unit(trace.entries(name), lambda s: s["ms"] / 1e3)
        if sums:
            metrics[metric] = median(sums)
    translate = trace.entries("psq.translate_doc")
    if translate:
        docs = trace.per_unit(translate, lambda s: 1.0)
        seconds = trace.per_unit(translate, lambda s: s["ms"] / 1e3)
        metrics["psq.docs_per_s"] = median(d / s for d, s in zip(docs, seconds) if s > 0)
    for metric, (event, field) in UNIT_EVENT_SUMS.items():
        sums = defaultdict(float)
        for e in trace.events:
            if e.get("event") == event and isinstance(e.get(field), float) and e["qid"] in trace.units:
                sums[e["qid"]] += e[field]
        if sums:
            metrics[metric] = median(sums.values())

    for metric, name in CALL_MS.items():
        durations = [s["ms"] for s in trace.entries(name)]
        if durations:
            metrics[metric] = median(durations)
    for metric, (event, field) in EVENT_MEDIANS.items():
        values = trace.event_values(event, field)
        if values:
            metrics[metric] = median(values)

    searches = trace.entries("lexical.search_lexical")
    by_config = defaultdict(list)
    for span in searches:
        if _kind(span["qid"]) == "query":
            by_config[span["qid"].rsplit(":", 1)[1].replace("+", "_")].append(span["ms"])
    for config, durations in by_config.items():
        metrics[f"lexical.search_ms.{config}.p50"] = median(durations)
        metrics[f"lexical.search_ms.{config}.p90"] = p90(durations)
    counts = [s["count"] for s in searches if s["count"] is not None]
    if counts:
        metrics["lexical.results_per_call"] = median(counts)

    if context.get("passages"):
        candidates = trace.event_values("dense_search", "candidates", "query")
        if candidates:
            metrics["dense.candidate_ratio"] = median(c / context["passages"] for c in candidates)
    scored = {s["qid"]: s["count"] for s in trace.entries("dense.search_dense") if s["count"]}
    returned = {s["qid"]: s["count"] for s in trace.spans if s["name"] == "bench.query" and s["count"] is not None}
    useful = [returned[qid] / scored[qid] for qid in scored if qid in returned]
    if useful:
        metrics["dense.useful_ratio"] = median(useful)
    tokens = trace.event_values("dense_index_build", "tokens", "unit")
    if context.get("dense_index_bytes") and tokens:
        metrics["dense.bytes_per_token"] = context["dense_index_bytes"] / median(tokens)
    if "oracle_top20_overlap" in context:
        metrics["dense.oracle_top20_overlap"] = context["oracle_top20_overlap"]

    for name in sorted({s["name"] for s in trace.spans if s["module"] == "cli"}):
        sums = trace.per_unit([s for s in trace.spans if s["name"] == name], lambda s: s["ms"] / 1e3)
        metrics[f"{name}_s"] = median(sums)
    if context.get("import_s"):
        metrics["cli.import_s"] = median(context["import_s"])

    # Self time per module: per query in the query workloads, per pass in the pipeline.
    if trace.queries:
        per_query = defaultdict(lambda: defaultdict(float))
        for span in trace.spans:
            if _kind(span["qid"]) == "query":
                per_query[span["qid"]][span["module"]] += span["self_ms"]
        for module in sorted({m for modules in per_query.values() for m in modules}):
            metrics[f"{module}.self_ms"] = median(modules.get(module, 0.0) for modules in per_query.values())
    elif trace.units:
        for module in sorted({s["module"] for s in trace.spans}):
            sums = trace.per_unit([s for s in trace.spans if s["module"] == module], lambda s: s["self_ms"] / 1e3)
            metrics[f"{module}.self_s"] = median(sums)

    traced, untraced = context.get("traced_ms"), context.get("untraced_ms")
    if traced and untraced:
        metrics["trace.overhead_ms"] = median(traced) - median(untraced)
    return metrics
