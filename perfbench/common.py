"""Paths, workload configuration and process facts shared by the benchmark's scripts."""

from __future__ import annotations

import ctypes
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import the engine from the checkout's ``src`` rather than any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def workload_config(name: str, scale: str = "full", brief: bool = False) -> dict:
    """One workload's settings. ``tiny`` overlays the self-test sizes on the full
    ones; ``brief`` overlays the repeat counts of a short traced run (see run.py)."""
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    workload = dict(config["workloads"][name])
    tiny = workload.pop("tiny", {})
    short = workload.pop("brief", {})
    if scale == "tiny":
        workload.update(tiny)
    if brief:
        workload.update(short)
    for key in ("blas_threads", "setup_repeats", "min_queries", "min_rounds", "min_passes"):
        workload.setdefault(key, config[key])
    workload["name"] = name
    return workload


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when none is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def write_json(path: Path, payload) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
