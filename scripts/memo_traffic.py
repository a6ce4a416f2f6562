"""Hits, misses and size of every memo of lieflag on one benchmark workload.

    python3 scripts/memo_traffic.py {query_mix,lie_sweep,db_churn}

Runs the workload's class from bench/workloads.py in this process: its
``warm()``, then 3,000 ops of its seeded stream (seed 5), each run and
checked as the benchmark checks it, so a wrong answer stops the script.
Prints one line per ``lru_cache`` of lieflag with the hits and misses of
those ops alone (the counts after ``warm()`` are subtracted) and the
size at the end, then the sizes of the two dict memos of ``records``.
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
from lieflag import records  # noqa: E402

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


def traffic(workload: str, ops: int = OPS) -> dict[str, tuple]:
    """(hits, misses, size) of each memo over ``ops`` checked ops after
    ``warm()``; hits and misses are None for a dict memo."""
    with tempfile.TemporaryDirectory() as work:
        wl = WORKLOADS[workload](Path(work))
        wl.warm()
        caches = memos()
        before = {name: fn.cache_info() for name, fn in caches.items()}
        stream = wl.ops(random.Random(SEED))
        for _ in range(ops):
            op = next(stream)
            answer = error = None
            try:
                answer = wl.run(op)
            except Exception as exc:  # judged by the workload's check
                error = exc
            wl.check(op, answer, error)
    found = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        found[name] = (info.hits - before[name].hits, info.misses - before[name].misses,
                       info.currsize)
    for name in DICTS:
        found[f"records.{name}"] = (None, None, len(getattr(records, name)))
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    print(f"{'memo':<32}  {'hits':>7}  {'misses':>7}  {'size':>5}")
    for name, (hits, misses, size) in traffic(args.workload).items():
        hits, misses = ("-" if v is None else v for v in (hits, misses))
        print(f"{name:<32}  {hits:>7}  {misses:>7}  {size:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
