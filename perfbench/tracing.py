"""In-memory spans and ``event=`` records for the benchmark's traced runs.

Spans are taken from outside the engine: while recording is on, the tracer
replaces the public functions listed in ``INSTRUMENTED`` with timing wrappers
on their modules, and restores them when recording stops. Engine code that
calls these functions through their module (the CLI, the engine's own
module-level calls and the benchmark) is then timed; untraced code runs the
engine unchanged. A span records its name, start, end, parent span, the
query or unit id it belongs to, and the length of the value it returned.
"""

from __future__ import annotations

import functools
import importlib
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Public engine functions timed in traced runs, by module of ``xlir``.
INSTRUMENTED = {
    "corpus": ["ingest_collection", "ingest_topics"],
    "psq": ["load_table", "prune_table", "translate_doc"],
    "lexical": ["build_index", "save_index", "load_index", "search_lexical", "rm3_expand"],
    "dense": [
        "load_embeddings",
        "build_dense_index",
        "save_dense_index",
        "load_dense_index",
        "search_dense",
        "maxp_aggregate",
    ],
    "shards": ["plan_shards", "select_shards", "merge_shard_results", "fuse_multilingual"],
    "distill": ["write_distill_file"],
    "evaluation": ["evaluate", "write_run"],
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    qid: str | None
    end: float = 0.0
    count: int | None = None


def parse_event(message: str) -> dict | None:
    """``event=name key=value ...`` as a dict with numeric values as floats."""
    fields: dict = {}
    for token in message.split():
        key, sep, value = token.partition("=")
        if not sep:
            continue
        try:
            fields[key] = float(value)
        except ValueError:
            fields[key] = value
    return fields if "event" in fields else None


class _EventCapture(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        fields = parse_event(record.getMessage())
        if fields is not None:
            stack = self.tracer._stack
            fields["span"] = stack[-1] if stack else -1
            fields["qid"] = self.tracer.spans[stack[-1]].qid if stack else None
            self.tracer.events.append(fields)


class Tracer:
    """Collects spans and events in memory; ``dump`` returns them for writing out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._on = False
        self._capture = _EventCapture(self)
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, names in INSTRUMENTED.items():
            module = importlib.import_module(f"xlir.{module_name}")
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{module_name}.{name}", original)
                self._patches.append((module, name, original, wrapped))

    def _open(self, name: str, qid: str | None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if qid is None and parent >= 0:
            qid = self.spans[parent].qid
        span = Span(name=name, start=time.perf_counter(), parent=parent, qid=qid)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hasattr(result, "__len__"):
                span.count = len(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, qid: str | None = None):
        """A span of the benchmark's own; yields None when not recording."""
        if not self._on:
            yield None
            return
        span = self._open(name, qid)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def recording(self, on: bool = True):
        """Instrument the engine and capture its events for the duration."""
        if not on:
            yield
            return
        for module, name, _, wrapped in self._patches:
            setattr(module, name, wrapped)
        logger = logging.getLogger("xlir")
        level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self._capture)
        self._on = True
        try:
            yield
        finally:
            self._on = False
            logger.removeHandler(self._capture)
            logger.setLevel(level)
            for module, name, original, _ in self._patches:
                setattr(module, name, original)

    def dump(self) -> dict:
        return {"spans": [asdict(span) for span in self.spans], "events": self.events}
