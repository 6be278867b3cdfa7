"""The benchmark looks engine functions up by name, so renaming one must fail here, fast."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_tracer_resolves_every_instrumented_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    # The constructor looks up every name in INSTRUMENTED; a missing one raises AttributeError.
    tracer = tracing.Tracer()
    assert len(tracer._patches) == sum(len(names) for names in tracing.INSTRUMENTED.values())


def _engine_attributes(source: str) -> set[tuple[str, str]]:
    """(module, name) of every ``module.name`` used on a module imported with ``from xlir import``."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "xlir"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_benchmark_resolves_every_engine_name_it_uses():
    # Names the benchmark calls directly, outside the tracer's INSTRUMENTED list, fail only
    # when the benchmark runs; resolving them here catches a rename with the tests.
    used = {
        (module, name): path.name
        for path in sorted(PERFBENCH.glob("*.py"))
        for module, name in _engine_attributes(path.read_text(encoding="utf-8"))
    }
    assert {("evaluation", "ranking_from_entries"), ("dense", "compress"), ("lexical", "bm25_score")} <= used.keys()
    missing = [
        f"{where}: xlir.{module}.{name}"
        for (module, name), where in sorted(used.items())
        if not hasattr(importlib.import_module(f"xlir.{module}"), name)
    ]
    assert not missing, missing
