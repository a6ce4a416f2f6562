"""The closed loop every workload runs in: one client, seeded ops, timed blocks.

A workload provides an endless seeded ``ops(rng)`` stream, ``run(op)`` (the
timed call) and ``check(op, answer, error)``, which returns the op's status
and the text that goes into the answer digest, or raises ``WrongAnswer``.
``prefix_ops`` is the length of the fixed stream prefix that the digest,
the peak-memory reading and the reported ``attempted``/``failed`` counts
(with the workload's ``info()``) cover; a run too short to reach it
finishes the prefix untimed, so all of them are always taken at the same
input and repeat exactly for a seed.  Every op of the run is checked, and
a wrong answer anywhere is counted in ``wrong``; the whole run's counts go
under ``run``.

Ops run in blocks of ``block_ns``.  ``calibrate()`` is sampled between
blocks and a block's times are later multiplied by the mean of the two
samples around it (see calibrate.py).  With a tracer, odd blocks run with
it installed.
"""

from __future__ import annotations

import hashlib
import random
import sys
from time import perf_counter_ns

OK, FAILED, WRONG = "ok", "failed", "wrong"


class WrongAnswer(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def closed_loop(wl, seed: int, seconds: float, block_ns: int, calibrate, rss, tracer=None) -> dict:
    """Run ``wl`` for ``seconds``; counts, per-phase latencies and blocks, digest, peak RSS."""
    stream = wl.ops(random.Random(seed))
    prefix_ops = wl.prefix_ops
    digest = hashlib.sha256()
    counts = {"attempted": 0, "failed": 0, "wrong": 0}
    errors: dict[str, int] = {}
    peak_rss = [0.0]
    at_prefix: dict = {}

    def step() -> int:
        op = next(stream)
        error = answer = None
        start = perf_counter_ns()
        try:
            answer = wl.run(op)
        except Exception as exc:  # judged by the workload's check
            error = exc
        elapsed = perf_counter_ns() - start
        try:
            status, text = wl.check(op, answer, error)
        except Exception as exc:  # WrongAnswer, or an answer the check cannot read
            status, text = WRONG, f"wrong:{type(exc).__name__}: {exc}"
            print(f"wrong answer: {type(exc).__name__}: {exc}", file=sys.stderr)
        counts["attempted"] += 1
        if status != OK:
            counts["failed"] += 1
            key = text.split(":", 1)[0] if status == FAILED else WRONG
            errors[key] = errors.get(key, 0) + 1
        counts["wrong"] += status == WRONG
        if counts["attempted"] <= prefix_ops:
            digest.update(text.encode() + b"\n")
        if counts["attempted"] == prefix_ops:
            peak_rss[0] = rss()
            at_prefix.update(
                attempted=counts["attempted"],
                failed=counts["failed"],
                errors=dict(errors),
                info=wl.info() if hasattr(wl, "info") else {},
            )
        return elapsed

    phases = {"plain": {"lat": [], "blocks": []}, "traced": {"lat": [], "blocks": []}}
    deadline = perf_counter_ns() + int(seconds * 1e9)
    block = 0
    scale = calibrate()
    while perf_counter_ns() < deadline:
        traced = tracer is not None and block % 2 == 1
        phase = phases["traced" if traced else "plain"]
        if traced:
            tracer.install()
        block_end = min(perf_counter_ns() + block_ns, deadline)
        done = busy = 0
        while perf_counter_ns() < block_end:
            elapsed = step()
            phase["lat"].append(elapsed)
            done += 1
            busy += elapsed
        if traced:
            tracer.uninstall()
        scale_before, scale = scale, calibrate()
        if done:
            phase["blocks"].append([done, busy, (scale_before + scale) / 2])
        block += 1
    while counts["attempted"] < prefix_ops:
        step()

    return {
        **at_prefix,
        "wrong": counts["wrong"],
        "run": {"attempted": counts["attempted"], "failed": counts["failed"], "errors": errors},
        "phases": phases,
        "digest": digest.hexdigest(),
        "digest_ops": prefix_ops,
        "peak_rss_mb": peak_rss[0],
        "trace": tracer.export() if tracer is not None else None,
    }
