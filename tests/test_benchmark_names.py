"""The benchmark looks engine functions up by name, so renaming one must fail here, fast."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_resolves_every_instrumented_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    # The constructor looks up every name in INSTRUMENTED; a missing one raises AttributeError.
    tracer = tracing.Tracer()
    assert len(tracer._patches) == sum(len(names) for names in tracing.INSTRUMENTED.values())
