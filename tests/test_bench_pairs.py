"""The paired-benchmark summary of ``tools/bench_pairs.py`` on canned samples."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs():
    parent = [0.130, 0.128, 0.140, 0.126, 0.129]
    change = [0.118, 0.131, 0.120, 0.115, 0.117]
    return [
        ({"verify_s": p, "margin_digits": 4.58}, {"verify_s": c, "margin_digits": 4.58 + (i == 2)})
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_medians_quartiles_and_wins():
    out = bench_pairs.summarize(_pairs(), {"verify_s": "lower", "margin_digits": "higher"})
    assert out["pairs"] == 5 and out["failed_pairs"] == 0
    v = out["metrics"]["verify_s"]
    assert v["parent"] == {"median": 0.129, "q1": 0.128, "q3": 0.130}
    assert v["change"] == {"median": 0.118, "q1": 0.117, "q3": 0.120}
    assert v["ratio"] == pytest.approx(0.118 / 0.129)
    # pair 2 (0.128 -> 0.131) is lost, the other four are won
    assert (v["change_won"], v["compared"], v["better"]) == (4, 5, "lower")
    m = out["metrics"]["margin_digits"]
    # higher is better, and a tie is not a win
    assert (m["change_won"], m["better"]) == (1, "higher")
    assert m["parent"]["median"] == m["change"]["median"] == 4.58


def test_failed_runs_are_counted_not_compared():
    pairs = _pairs()
    pairs[1] = (pairs[1][0], None)
    pairs[3] = (None, pairs[3][1])
    out = bench_pairs.summarize(pairs, {})
    assert out["failed_pairs"] == 2
    v = out["metrics"]["verify_s"]
    assert v["compared"] == 3 and v["better"] == "lower"
    assert v["parent"]["median"] == 0.130 and v["change"]["median"] == 0.118


def test_one_pair_has_degenerate_quartiles():
    out = bench_pairs.summarize(_pairs()[:1], {"verify_s": "lower"})
    assert out["metrics"]["verify_s"]["parent"] == {"median": 0.130, "q1": 0.130, "q3": 0.130}


def test_directions_and_workloads_come_from_the_benchmark_declaration():
    spec = bench_pairs.benchmark(_PATH.parent.parent)
    better = bench_pairs.directions(spec)
    assert better["verify_s"] == "lower" and better["margin_digits"] == "higher"
    assert "grid_pair" in [w["name"] for w in spec["workloads"]]
