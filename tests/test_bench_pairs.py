"""The paired benchmark runner's order, summary and refusal, with the runs faked."""

import json

from oracles import load_script

bench_pairs = load_script("bench_pairs")


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
    # 3 of 4 wins is under 0.9 of the pairs; 4 of 4 and a shift of 1.0 over
    # an interquartile range of 0 is a gain
    assert (ops["gain_rule"], p50["gain_rule"]) == (False, True)


def test_the_gain_rule_needs_a_shift_beyond_the_base_quartiles(monkeypatch, tmp_path):
    def result(seed, side):
        ops = 100 + 10 * seed + (5 if side == "head" else 0)
        p50 = 2.0 if side == "base" else (3.0 if seed == 4 else 1.0)
        return {"digest": f"digest={seed}", "correct": True, "failed": 0,
                "metrics": {"ops_per_s": ops, "latency_p50_ms": p50, "unlisted": 1.0}}

    _fake_runs(monkeypatch, result)
    argv = ["--base", "HEAD", "--workload", "lie_sweep", "--pairs", "10", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    metrics = json.loads((tmp_path / "BENCH_lie_sweep.json").read_text())["metrics"]
    ops = metrics["ops_per_s"]
    # every pair won, but the medians differ by 5 inside a base IQR of 45
    assert (ops["head_wins"], ops["base"]["q3"] - ops["base"]["q1"]) == (10, 45.0)
    assert ops["head"]["median"] - ops["base"]["median"] == 5
    assert ops["gain_rule"] is False
    # 9 of 10 wins is exactly 0.9 of the pairs, and the shift clears the IQR
    p50 = metrics["latency_p50_ms"]
    assert (p50["head_wins"], p50["gain_rule"]) == (9, True)
    # a metric BENCHMARK.json does not list has no direction, so no rule
    assert (metrics["unlisted"]["head_wins"], metrics["unlisted"]["gain_rule"]) == (None, None)


def test_sides_that_disagree_on_a_digest_write_no_report(monkeypatch, tmp_path, capsys):
    def result(seed, side):
        digest = "digest=other" if (seed, side) == (2, "head") else f"digest={seed}"
        return {"digest": digest, "correct": True, "failed": 0, "metrics": {"ops_per_s": 1.0}}

    _fake_runs(monkeypatch, result)
    argv = ["--base", "HEAD", "--workload", "query_mix", "--pairs", "3", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 1
    assert "seed 2: the sides differ on digest" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
