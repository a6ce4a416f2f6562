"""Benchmark of lieflag: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_oneshot, query_mix, lie_sweep, db_churn (see bench/NOTES.md).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines before it give the interpreter, the child environment, the answer
digest and the figures that are not bounded metrics (failed_share,
latency_p99_ms).  ``attempted`` and ``failed`` count the seed's fixed op
prefix, which every run completes, so they repeat exactly for a seed; the
whole run's counts are printed above it.  Every child runs one at a time in a pinned environment
with its bytecode cache under bench/.work/, which the run deletes at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from calibrate import REFERENCE_FLOOR_MS
from loop import OK, closed_loop, expect

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = BENCH / ".work"
PYCACHE = WORK / "pycache"
WORKLOADS = ("cli_oneshot", "query_mix", "lie_sweep", "db_churn")
SETUP_SAMPLES = 15
PROBE_SAMPLES = 5
CLI_BLOCK_NS = 1_000_000_000
CLI_SETUP_CASE = "classify_SL4_n4"
P99_MIN_SAMPLES = 1000
CHILD_TIMEOUT_S = 60

# Layer functions reported by name; a function missing from its module is
# reported as absent with zeros rather than failing the run.
CALLS_AND_SELF = (
    "cli.run",
    "classifier.load_database",
    "classifier.classify",
    "classifier.validate_records",
    "records.parse_records",
    "records.eval_expr",
    "parabolic.r_min",
    "parabolic.codim_parabolic",
    "representations.weyl_dim",
    "roots.positive_roots",
    "roots.root_system",
    "cone.cone_hilbert_function",
)
SELF_ONLY = (
    "classifier.orbit_structure",
    "classifier.relations",
    "records.serialize_records",
    "representations.bwb_section_dim",
)
HIT_RATIO = ("roots.positive_roots", "roots.root_system")


class BenchError(Exception):
    pass


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    A child that starts on another CPU than the last one pays for the
    migration, and the calibration would time a different CPU than the one
    measured.  Only one process runs at a time, so they never compete.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def child_env() -> dict[str, str]:
    """The environment of every child: bytecode cached under bench/.work."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
        "PYTHONHASHSEED": "0",
    }


def clear_program_bytecode() -> None:
    """Drop the cached bytecode of src/lieflag, keeping the stdlib's."""
    shutil.rmtree(str(PYCACHE) + str(SRC / "lieflag"), ignore_errors=True)


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        timeout=timeout,
    )


def floor_ms() -> float:
    """Wall time of a bare interpreter start (``python -c pass``) in the child env."""
    start = time.perf_counter_ns()
    proc = run_child(["-c", "pass"])
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if proc.returncode != 0:
        raise BenchError(f"bare interpreter exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def cli_probes() -> dict[str, float]:
    """Interpreter floor and lieflag.cli import time, in the child environment."""
    floor = [floor_ms() for _ in range(PROBE_SAMPLES)]
    imports = []
    for _ in range(PROBE_SAMPLES):
        proc = run_child(
            [
                "-c",
                "import time; t = time.perf_counter_ns(); import lieflag.cli; "
                "print(time.perf_counter_ns() - t)",
            ]
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.decode()[-500:]}")
        imports.append(int(proc.stdout) / 1e6)
    return {"interpreter_ms": statistics.median(floor), "import_ms": statistics.median(imports)}


def latency_stats(lat_ns: list[int], blocks: list[list[float]]) -> dict:
    """Throughput and latency quantiles, each block's times multiplied by its
    scale (see calibrate.py); unscaled ops/s beside."""
    if not blocks:
        raise BenchError("no block completed; raise --seconds")
    lat_ms, start = [], 0
    for done, _, scale in blocks:
        lat_ms.extend(x / 1e6 * scale for x in lat_ns[start : start + int(done)])
        start += int(done)
    if len(lat_ms) < 2:
        raise BenchError(f"only {len(lat_ms)} ops completed; raise --seconds")
    lat_ms.sort()
    cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {
        "ops_per_s": len(lat_ms) * 1e3 / sum(lat_ms),
        "raw_ops_per_s": len(lat_ms) * 1e9 / sum(busy for _, busy, _ in blocks),
        "p50": cuts[49],
        "p90": cuts[89],
        "p99": cuts[98],
        "samples": len(lat_ms),
    }


def setup_samples(one_setup) -> tuple[list[float], float]:
    """Seconds of SETUP_SAMPLES set-ups, each with cold program bytecode, and
    the scale from the bare interpreter starts timed between them."""
    samples, floors = [], [floor_ms()]
    for _ in range(SETUP_SAMPLES):
        clear_program_bytecode()
        samples.append(one_setup())
        floors.append(floor_ms())
    return samples, REFERENCE_FLOOR_MS / statistics.median(floors)


# ---------------------------------------------------------------- cli_oneshot


def cli_call(argv: list[str], trace_out: Path | None = None) -> subprocess.CompletedProcess:
    """One fresh ``python -m lieflag`` process, or its traced stand-in."""
    if trace_out is None:
        return run_child(["-m", "lieflag", *argv])
    return run_child([str(BENCH / "cli_child.py"), str(trace_out), *argv])


class CliOneshot:
    """Golden manifest commands, one fresh CLI process per op.

    The workload is its own tracer: while installed, ops run through
    cli_child.py, which writes its counters to a file that ``check`` merges.
    """

    def __init__(self) -> None:
        self.cases = []
        for line in (GOLDEN / "manifest.tsv").read_text().splitlines():
            name, command = line.split("\t")
            self.cases.append((name, shlex.split(command)))
        self.prefix_ops = 2 * len(self.cases)
        self.trace_file = WORK / "trace.json"
        self.trace_out: Path | None = None
        self.merged: dict = {"stats": {}, "nested": {}, "cache": {}}

    def ops(self, rng: random.Random):
        """Every (case, mode) pair in a seeded order, then again in another."""
        while True:
            stream = [(n, a) for n, a in self.cases] + [(n, a + ["--json"]) for n, a in self.cases]
            rng.shuffle(stream)
            yield from stream

    def run(self, op) -> subprocess.CompletedProcess:
        return cli_call(op[1], self.trace_out)

    def check(self, op, proc, error):
        name, argv = op
        if self.trace_file.exists():
            tracing.merge(self.merged, json.loads(self.trace_file.read_text()))
            self.trace_file.unlink()
        expect(error is None, f"{name} {argv}: {type(error).__name__}: {error}")
        suffix = "json" if argv[-1] == "--json" else "txt"
        want = (GOLDEN / f"{name}.{suffix}").read_bytes()
        expect(proc.returncode == 0, f"{name} {argv}: exit {proc.returncode}")
        expect(proc.stdout == want, f"{name} {argv}: stdout differs from the golden file")
        return OK, proc.stdout.decode() + f"exit={proc.returncode}"

    def info(self) -> dict:
        return {"golden_cases": len(self.cases), "modes": "text,json"}

    def install(self) -> None:
        self.trace_out = self.trace_file

    def uninstall(self) -> None:
        self.trace_out = None

    def export(self) -> dict:
        return self.merged


def run_cli_oneshot(seed: int, seconds: float, trace: bool) -> dict:
    wl = CliOneshot()
    setup_argv = dict(wl.cases)[CLI_SETUP_CASE]

    def one_setup() -> float:
        start = time.perf_counter_ns()
        proc = cli_call(setup_argv)
        elapsed = time.perf_counter_ns() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up command failed: {proc.stderr.decode()[-500:]}")
        return elapsed / 1e9

    one_setup()  # caches the stdlib's bytecode
    setup = ([], 1.0) if trace else setup_samples(one_setup)
    result = closed_loop(
        wl,
        seed,
        seconds,
        CLI_BLOCK_NS,
        calibrate=lambda: REFERENCE_FLOOR_MS / floor_ms(),
        rss=lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        tracer=wl if trace else None,
    )
    result["setup"] = setup
    return result


# ----------------------------------------------------------- in-process workloads


def worker_argv(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    argv = [
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--work", str(WORK),
    ]
    return argv + (["--setup-only"] if setup_only else [])


def spawn_worker(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run a worker; returns (seconds from spawn to the end of its set-up, its JSON)."""
    spawned = time.monotonic_ns()
    proc = run_child(argv, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    sys.stderr.write(proc.stderr.decode())
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return (result["ready_ns"] - spawned) / 1e9, result


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_argv = worker_argv(workload, seed, 0, False, True)
    run_child(setup_argv)  # caches the stdlib's bytecode
    setup = (
        ([], 1.0)
        if trace
        else setup_samples(lambda: spawn_worker(setup_argv, CHILD_TIMEOUT_S)[0])
    )
    _, result = spawn_worker(
        worker_argv(workload, seed, seconds, trace, False), seconds + CHILD_TIMEOUT_S
    )
    result["setup"] = setup
    return result


# ------------------------------------------------------------------- metrics


def layer_metrics(result: dict, probes: dict, overhead_pct: float) -> tuple[dict, list[str]]:
    trace = result["trace"]
    stats, cache = trace["stats"], trace["cache"]
    metrics: dict[str, dict] = {}
    absent: list[str] = []

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("cli.interpreter_ms", probes["interpreter_ms"], "ms")
    put("cli.import_ms", probes["import_ms"], "ms")
    for fn in CALLS_AND_SELF + SELF_ONLY:
        if fn not in stats and fn != "cli.run":
            absent.append(fn)
        calls, _, self_ns = stats.get(fn, (0, 0, 0))
        if fn in CALLS_AND_SELF:
            put(f"{fn}.calls", calls, "count")
        put(f"{fn}.self_ms", self_ns / 1e6, "ms")
    for fn in HIT_RATIO:
        hits, misses = cache.get(fn, (0, 0))
        if fn not in cache:
            absent.append(f"{fn}.cache_info")
        put(f"{fn}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    classify_calls = stats.get("classifier.classify", (0,))[0]
    nested = trace["nested"].get("records.eval_expr<classifier.classify", 0)
    put(
        "records.eval_expr.per_classify",
        nested / classify_calls if classify_calls else 0.0,
        "calls/op",
    )
    info = result["info"]
    malformed = info.get("malformed_variants", 0)
    put(
        "records.malformed_rejected_ratio",
        info.get("malformed_rejected", 0) / malformed if malformed else 0.0,
        "ratio",
    )
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics, absent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "lieflag" / "__init__.py").is_file() or not (GOLDEN / "manifest.tsv").is_file():
        print(f"error: {ROOT} holds no lieflag source tree (src/lieflag, tests/golden)", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload == "cli_oneshot":
            result = run_cli_oneshot(args.seed, args.seconds, trace)
        else:
            result = run_in_process(args.workload, args.seed, args.seconds, trace)
        probes = cli_probes() if trace else None
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    plain = latency_stats(result["phases"]["plain"]["lat"], result["phases"]["plain"]["blocks"])
    env = " ".join(
        f"{k}={v.replace(str(ROOT) + os.sep, '')}" for k, v in child_env().items() if k != "PATH"
    )
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"python={sys.version.split()[0]} implementation={sys.implementation.name}")
    print(f"child_env: {env} (PYTHONDONTWRITEBYTECODE unset; site enabled)")
    setup_raw, setup_scale = result["setup"]
    if setup_raw:
        print(
            "setup_s unscaled samples: " + " ".join(f"{s:.4f}" for s in setup_raw)
            + f"; scale {setup_scale:.4f}"
        )
    failed_share = result["failed"] / result["attempted"]
    print(
        f"failed_share={failed_share:.4f} share over the first {result['digest_ops']} ops "
        f"(attempted={result['attempted']} failed={result['failed']} errors={result['errors']})"
    )
    run = result["run"]
    print(
        f"whole run, all checked: attempted={run['attempted']} failed={run['failed']} "
        f"wrong={result['wrong']} errors={run['errors']}"
    )
    scales = [scale for _, _, scale in result["phases"]["plain"]["blocks"]]
    print(
        f"unscaled ops_per_s={plain['raw_ops_per_s']:.2f} 1/s; "
        f"median time scale {statistics.median(scales):.4f}"
    )
    if plain["samples"] >= P99_MIN_SAMPLES:
        print(f"latency_p99_ms={plain['p99']:.4f} ms (samples={plain['samples']})")
    else:
        print(f"latency_p99_ms not reported: {plain['samples']} samples < {P99_MIN_SAMPLES}")
    print(
        f"digest=sha256:{result['digest']} over the first {result['digest_ops']} ops; "
        f"peak_rss_mb, attempted, failed and info taken there"
    )
    if result["info"]:
        print("info: " + json.dumps(result["info"], sort_keys=True))

    if trace:
        traced = latency_stats(result["phases"]["traced"]["lat"], result["phases"]["traced"]["blocks"])
        overhead = 100.0 * (plain["ops_per_s"] - traced["ops_per_s"]) / plain["ops_per_s"]
        metrics, absent = layer_metrics(result, probes, overhead)
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_raw) * setup_scale, "unit": "s"},
            "ops_per_s": {"value": plain["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": plain["p50"], "unit": "ms"},
            "latency_p90_ms": {"value": plain["p90"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": result["wrong"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
