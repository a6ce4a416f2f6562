"""One process that sets up and runs an in-process workload.

Started by run.py with the pinned child environment.  With --setup-only it
exits once set-up is done; otherwise it runs the closed loop (loop.py) for
--seconds and prints one JSON document: the set-up end time on the
monotonic clock (comparable with the parent's spawn time), per-op
latencies, per-block op count, busy time and time scale (see
calibrate.py), the answer digest, the peak RSS at the end of the stream
prefix and, with --trace 1, the per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from calibrate import REFERENCE_RATE, machine_rate
from loop import closed_loop

BLOCK_NS = 500_000_000


def make_workload(name: str, work: Path):
    if name == "query_mix":
        return workloads.QueryMix()
    if name == "lie_sweep":
        return workloads.LieSweep()
    return workloads.DbChurn(work / "variants")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = make_workload(args.workload, Path(args.work))
    wl.warm()
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    result = closed_loop(
        wl,
        args.seed,
        args.seconds,
        BLOCK_NS,
        calibrate=lambda: machine_rate() / REFERENCE_RATE,
        rss=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        tracer=tracer,
    )
    print(json.dumps({"ready_ns": ready_ns, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
