"""The paired benchmark runner's order, summary and refusal, with the runs faked."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _fake_runs(monkeypatch, result):
    """Replace git, the export and the benchmark runs; return the (seed, side) calls."""
    monkeypatch.setattr(bench_pairs, "git", lambda *args, binary=False: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    calls = []

    def run_side(root, workload, seed, seconds, trace):
        side = "head" if root == bench_pairs.ROOT else "base"
        calls.append((seed, side))
        return result(seed, side)

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    return calls


def test_pairs_alternate_and_the_summary_counts_wins_by_direction(monkeypatch, tmp_path):
    def result(seed, side):
        ops = 100 + seed if side == "base" else (90 if seed == 3 else 150 + seed)
        p50 = 2.0 if side == "base" else 1.0
        return {"digest": f"digest={seed}", "correct": True, "failed": 0,
                "metrics": {"ops_per_s": ops, "latency_p50_ms": p50}}

    calls = _fake_runs(monkeypatch, result)
    argv = ["--base", "HEAD", "--workload", "query_mix", "--pairs", "4", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    assert calls == [(1, "base"), (1, "head"), (2, "head"), (2, "base"),
                     (3, "base"), (3, "head"), (4, "head"), (4, "base")]
    report = json.loads((tmp_path / "BENCH_query_mix.json").read_text())
    ops = report["metrics"]["ops_per_s"]
    assert (ops["better"], ops["head_wins"], ops["pairs"]) == ("higher", 3, 4)
    assert ops["base"]["median"] == 102.5 and ops["head"]["median"] == 151.5
    assert ops["base"]["q1"] < ops["base"]["median"] < ops["base"]["q3"]
    p50 = report["metrics"]["latency_p50_ms"]
    assert (p50["better"], p50["head_wins"], p50["ratio"]) == ("lower", 4, 0.5)


def test_sides_that_disagree_on_a_digest_write_no_report(monkeypatch, tmp_path, capsys):
    def result(seed, side):
        digest = "digest=other" if (seed, side) == (2, "head") else f"digest={seed}"
        return {"digest": digest, "correct": True, "failed": 0, "metrics": {"ops_per_s": 1.0}}

    _fake_runs(monkeypatch, result)
    argv = ["--base", "HEAD", "--workload", "query_mix", "--pairs", "3", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 1
    assert "seed 2: the sides differ on digest" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
