"""Paired benchmark runs of the working tree against a base revision.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --base REV --workload NAME [--pairs N]
        [--seconds S] [--seed FIRST] [--trace 0|1] [--out DIR]

The base revision is exported with ``git archive`` into a temporary
directory.  Each pair runs ``bench/run.py`` of both sides with the same
seed (pair i uses FIRST + i), the base first in even pairs and the working
tree first in odd ones, one run at a time.  If the two sides of a pair
disagree on the ``digest=`` line or on ``correct``, nothing is written and
the script exits 1.  Otherwise it writes ``BENCH_<workload>.json``, or
``BENCH_<workload>_trace.json`` for the per-layer metrics of traced runs,
into DIR (the repository root by default): per metric, each side's median and
quartiles, the ratio of the medians (head over base), the number of
pairs the working tree won, in the direction ``BENCHMARK.json`` gives, and
``gain_rule``: whether it won at least 0.9 of the pairs and its median
differs from the base's by more than the base's interquartile range.
Standard library and plain ``git`` only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class PairError(Exception):
    pass


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout
    return out if binary else out.decode().strip()


def export(rev: str, into: Path) -> None:
    archive = git("archive", "--format=tar", rev, binary=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of a checkout: its digest line, correctness and metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PairError(f"{root}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    last = json.loads(lines[-1])
    digest = next((line for line in lines if line.startswith("digest=")), None)
    return {
        "digest": digest,
        "correct": last["correct"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: list[dict], directions: dict[str, str]) -> dict:
    metrics = {}
    for name in runs[0]["base"]["metrics"]:
        base = [run["base"]["metrics"][name] for run in runs]
        head = [run["head"]["metrics"][name] for run in runs]
        better = directions.get(name)
        b, h = spread(base), spread(head)
        wins = gain = None
        if better is not None:
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
            shift = abs(h["median"] - b["median"])
            gain = wins >= 0.9 * len(runs) and shift > b["q3"] - b["q1"]
        metrics[name] = {
            "better": better,
            "base": b,
            "head": h,
            "ratio": h["median"] / b["median"] if b["median"] else None,
            "head_wins": wins,
            "gain_rule": gain,
            "pairs": len(runs),
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not args.out.is_dir():
        ap.error(f"--out {args.out} is not a directory")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    head_rev = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    runs = []
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
            base_root = Path(tmp)
            export(base_rev, base_root)
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    root = base_root if side == "base" else ROOT
                    run[side] = run_side(root, args.workload, seed, args.seconds, args.trace)
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"{json.dumps(run[side]['metrics'])}", file=sys.stderr)
                for key in ("digest", "correct"):
                    if run["base"][key] != run["head"][key]:
                        raise PairError(f"seed {seed}: the sides differ on {key}: "
                                        f"{run['base'][key]!r} != {run['head'][key]!r}")
                runs.append(run)
    except (PairError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode() if isinstance(exc, subprocess.CalledProcessError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "base": base_rev,
        "head": head_rev,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "correct": runs[0]["base"]["correct"],
        "metrics": summary(runs, directions),
        "runs": runs,
    }
    out = args.out / f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
