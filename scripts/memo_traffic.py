"""Hits, misses and size of every memo of lieflag on one benchmark workload.

    python3 scripts/memo_traffic.py {query_mix,lie_sweep,db_churn} [--ops N]

Runs the workload's class from bench/workloads.py in this process: its
``warm()``, then 3,000 ops of its seeded stream (seed 5), each run and
checked as the benchmark checks it, so a wrong answer stops the script.
Prints one line per ``lru_cache`` of lieflag with the hits and misses of
those ops alone (the counts after ``warm()`` are subtracted) and the
size at the end, then the sizes of the two dict memos of ``records``.
With ``--ops N`` it runs N ops and then a second window of the next N
ops of the stream, and prints a table for each window, so a memo that
fills over many inputs shows its steady state in the second one.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import lieflag  # noqa: E402
import workloads  # noqa: E402  (bench/workloads.py, found through the path above)
from lieflag import cli, records, roots  # noqa: E402

OPS, SEED = 3000, 5
# Each workload's class, built with a scratch directory that only db_churn uses.
WORKLOADS = {
    "query_mix": lambda work: workloads.QueryMix(),
    "lie_sweep": lambda work: workloads.LieSweep(),
    "db_churn": workloads.DbChurn,
}
DICTS = ("_TEXTS", "_CHECKED")  # memos of records that are plain dicts


def memos() -> dict:
    """Every lru_cache of lieflag by its name, ``module.function``, from
    every module of the package (``__main__`` would run the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(lieflag.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lieflag.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{value.__qualname__}"] = value
    return found


def traffic(workload: str, ops: int = OPS, windows: int = 1) -> list[dict[str, tuple]]:
    """Per window of ``ops`` checked ops after ``warm()``, one after the other
    on the same stream: (hits, misses, size) of each memo, hits and misses
    within the window and size at its end; hits and misses are None for a
    dict memo.  The classical rank cap is put back afterwards."""
    found = []
    cap = roots.MAX_CLASSICAL_RANK  # lie_sweep's warm() raises it for its run
    try:
        with tempfile.TemporaryDirectory() as work:
            wl = WORKLOADS[workload](Path(work))
            wl.warm()
            caches = memos()
            stream = wl.ops(random.Random(SEED))
            for _ in range(windows):
                before = {name: fn.cache_info() for name, fn in caches.items()}
                for _ in range(ops):
                    op = next(stream)
                    answer = error = None
                    try:
                        answer = wl.run(op)
                    except Exception as exc:  # judged by the workload's check
                        error = exc
                    wl.check(op, answer, error)
                window = {}
                for name, fn in caches.items():
                    info = fn.cache_info()
                    window[name] = (info.hits - before[name].hits,
                                    info.misses - before[name].misses, info.currsize)
                for name in DICTS:
                    window[f"records.{name}"] = (None, None, len(getattr(records, name)))
                found.append(window)
    finally:
        roots.MAX_CLASSICAL_RANK = cap
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--ops", type=int, help="ops per window, then a second window of as many")
    args = ap.parse_args()
    if args.ops is not None and args.ops < 1:
        ap.error(f"--ops must be at least 1, got {args.ops}")
    windows = traffic(args.workload, args.ops or OPS, 1 if args.ops is None else 2)
    for number, window in enumerate(windows):
        if number:
            print()
        if len(windows) > 1:
            first = number * args.ops + 1
            print(f"window {number + 1}: ops {first}-{first + args.ops - 1}")
        print(f"{'memo':<32}  {'hits':>7}  {'misses':>7}  {'size':>5}")
        for name, (hits, misses, size) in window.items():
            hits, misses = ("-" if v is None else v for v in (hits, misses))
            print(f"{name:<32}  {hits:>7}  {misses:>7}  {size:>5}")
    return 0


if __name__ == "__main__":
    cli.main(main)
