"""Machine-speed calibration for a shared, unsteady CPU.

On the machine the benchmark was built on, the speed of the same work
drifts by a fifth or more within seconds and between minutes (other
tenants share the cores; process CPU time equals wall time, so it is the
processor, not scheduling).  Each timed block is therefore bracketed by a
calibration, and its times are multiplied by a scale that maps them to a
reference machine:

- In-process workloads run the pure-Python kernel below for 40 ms around
  each block; scale = measured rate / REFERENCE_RATE.  The kernel is made
  of the operations lieflag's hot loops are made of: dict and tuple work,
  generator sums over ``zip``, integer products, and a walk over a few MB
  of tuples, so it also slows down when other tenants take the shared
  cache.  Across machine-speed swings the speed of lieflag's ops follows
  this kernel's rate with a log-log slope of about 0.97; a dict-and-tuple
  kernel alone reached 0.78-0.90 and left twice the residual.
- CLI calls and set-ups are mostly process start, which that kernel does
  not follow (scaling by it widened their spread).  run.py times a bare
  interpreter start (``python -c pass`` in the child environment) around
  them instead; scale = REFERENCE_FLOOR_MS / measured start time.

Unscaled throughput is printed beside the scaled figures.
"""

from __future__ import annotations

from time import perf_counter_ns

# The reference machine: about the medians measured on a 2-vCPU Intel Xeon
# VM under Python 3.11 with the benchmark pinned to one CPU.
REFERENCE_RATE = 11_200.0  # kernel calls per second
REFERENCE_FLOOR_MS = 75.0  # bare interpreter start, ms
SAMPLE_NS = 40_000_000


_ROWS = ((1, 0, 2, 1), (0, 1, 1, 3), (2, 2, 0, 1), (1, 1, 1, 1))
_WEIGHT = (3, 1, 4, 1)


def _tables() -> int:
    table = {}
    acc = 0
    for i in range(60):
        key = (i, i & 7)
        table[key] = i * i % 11
        acc += table[key] + len(key)
    return acc


def _products() -> int:
    acc = 1
    for row in _ROWS:
        acc *= sum((c + 1) * v for c, v in zip(_WEIGHT, row)) + 1
        acc += sum(1 for x in row if any(x for _ in (0,)))
    table = {}
    for i in range(12):
        table[(i, i & 3)] = acc % (i + 3)
    return acc + len(table)


_WALK: list[tuple[int, ...]] = []
_WALK_STEP = 400
_walk_at = 0


def _walk() -> int:
    global _walk_at
    if not _WALK:  # built on first use, so that importing this module stays cheap
        _WALK.extend(tuple(range(i % 7, i % 7 + 12)) for i in range(20_000))
    acc = 0
    for row in _WALK[_walk_at : _walk_at + _WALK_STEP]:
        acc += row[3] + row[7]
    _walk_at = (_walk_at + 10 * _WALK_STEP + 1) % (len(_WALK) - _WALK_STEP)
    return acc


def _kernel() -> int:
    return _tables() + _products() + _walk()


def machine_rate(sample_ns: int = SAMPLE_NS) -> float:
    """Kernel calls per second over about ``sample_ns`` nanoseconds."""
    start = perf_counter_ns()
    calls = 0
    while True:
        _kernel()
        calls += 1
        elapsed = perf_counter_ns() - start
        if elapsed >= sample_ns:
            return calls * 1e9 / elapsed
