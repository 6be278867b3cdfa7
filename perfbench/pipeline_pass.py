"""The measured process of one ``pipeline`` pass.

Runs ``scripts/run_pipeline.py`` in this fresh process with ``xlir.cli.main``
wrapped from outside, so every CLI step's wall time is known. With
``--trace 1`` the engine's public functions are also spanned and its
``event=`` records captured. Writes a JSON report: the time from process
start (``--started``, a ``time.monotonic()`` value taken by the parent just
before it started this process) to the first CLI call, each CLI call, the
BLAS thread count and, when traced, the spans and events.

    python3 perfbench/pipeline_pass.py --output DIR --report FILE --started T \
        --trace 0 --pass-id pass-0
"""

from __future__ import annotations

import argparse
import runpy
import sys
import time
from pathlib import Path

from common import ROOT, blas_threads, use_source_tree, workload_config, write_json

use_source_tree()

import xlir.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def command_name(argv: list[str]) -> str:
    """CLI step name; ``search`` is split by route, since the two cost differently."""
    name = argv[0]
    if name == "search":
        name += "-dense" if "--query-embeddings" in argv else "-lexical"
    return name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", required=True)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--started", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", required=True)
    args = parser.parse_args()
    cfg = workload_config("pipeline")

    tracer = Tracer()
    commands = []
    cli_main = xlir.cli.main

    def timed_main(argv=None):
        name = command_name(argv)
        start = time.monotonic()
        with tracer.span(f"cli.{name}"):
            code = cli_main(argv)
        commands.append({"name": name, "start": start, "end": time.monotonic(), "code": code})
        return code

    xlir.cli.main = timed_main
    sys.argv = [cfg["script"], "--output", args.output, "--seed", str(cfg["script_seed"])]
    code = 0
    with tracer.recording(bool(args.trace)), tracer.span("bench.pass", args.pass_id):
        try:
            runpy.run_path(str(ROOT / cfg["script"]), run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    write_json(
        args.report,
        {
            "import_s": commands[0]["start"] - args.started if commands else None,
            "commands": commands,
            "code": code,
            "blas_threads": blas_threads(),
            **(tracer.dump() if args.trace else {}),
        },
    )
    return 0 if code in (0, None) else 1


if __name__ == "__main__":
    raise SystemExit(main())
