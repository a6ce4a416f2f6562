"""Traced stand-in for ``python -m lieflag``, used by cli_oneshot with --trace 1.

Usage: python bench/cli_child.py TRACE_OUT ARG...

Imports lieflag.cli (timing the import), wraps its public functions, runs
the command with stdout untouched, writes the counters to TRACE_OUT as
JSON and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import lieflag.cli

    import_ns = time.perf_counter_ns() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = lieflag.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    trace = tracer.export()
    trace["import_ns"] = import_ns
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
