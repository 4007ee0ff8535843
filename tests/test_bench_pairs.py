"""The verdict rule of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent runs: median 3.52, quartiles 3.4915-3.6038, spread 0.1123
PARENT = [3.588, 3.651, 4.092, 3.483, 3.520, 3.494, 3.585, 3.520, 3.516,
          3.465]


def test_summary_takes_the_exclusive_quartiles(bench_pairs):
    med, q1, q3 = bench_pairs.summary(PARENT)
    assert med == pytest.approx(3.52)
    assert (q1, q3) == pytest.approx((3.49125, 3.60375))


def test_ten_wins_past_the_spread_are_a_gain(bench_pairs):
    change = [p - 0.3 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "gain"


def test_nine_wins_and_a_tie_are_a_gain_eight_are_not(bench_pairs):
    nine = [p - 0.3 for p in PARENT[:9]] + [PARENT[9]]
    assert bench_pairs.wins(PARENT, nine, "lower") == 9
    assert bench_pairs.verdict(PARENT, nine, "lower", 0.25) == "gain"
    eight = nine[:8] + PARENT[8:]
    assert bench_pairs.wins(PARENT, eight, "lower") == 8
    assert bench_pairs.verdict(PARENT, eight, "lower", 0.25) == "within bound"


def test_every_win_inside_the_spread_is_no_gain(bench_pairs):
    change = [p - 0.1 for p in PARENT]  # 0.1 < the parent's 0.1123
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_higher_is_better_reverses_the_direction(bench_pairs):
    ops = [1.0 / p for p in PARENT]
    faster = [x * 1.2 for x in ops]
    assert bench_pairs.verdict(ops, faster, "higher", 0.25) == "gain"
    assert bench_pairs.verdict(faster, ops, "higher", 0.25) == "within bound"
    assert bench_pairs.verdict(faster, ops, "higher", 0.1) == "regression"


def test_worse_past_the_bound_is_a_regression(bench_pairs):
    # medians 3.52 -> 4.45: 26% worse, past a 0.25 bound, inside a 0.3 one
    change = [p + 0.93 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "regression"
    assert bench_pairs.verdict(PARENT, change, "lower", 0.3) == "within bound"


def test_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # the parent's spread, 0.1123, is 3.2% of its median
    change = [p + 0.01 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.03) == "unresolved"
    assert bench_pairs.verdict(PARENT, change, "lower", 0.05) == "within bound"


def test_runs_all_apart_are_not_unresolved(bench_pairs):
    # spread 11 is wider than the bound, and a 2.1 gain is inside it
    parent = [10.0, 11.0, 12.0, 13.0, 30.0]
    apart = [9.9] * 5
    assert bench_pairs.wins(parent, apart, "lower") == 5
    assert bench_pairs.verdict(parent, apart, "lower", 0.25) == "within bound"
    # five wins still, but one change run reads worse than a parent run
    overlapping = [9.9] * 4 + [10.5]
    assert bench_pairs.wins(parent, overlapping, "lower") == 5
    assert bench_pairs.verdict(parent, overlapping, "lower", 0.25) \
        == "unresolved"


def run(correct=True, failed=0, attempted=100):
    return {"correct": correct, "failed": failed, "attempted": attempted}


def test_tally_counts_incorrect_runs_and_failed_operations(bench_pairs):
    runs = [run(), run(False, 3, 50), run(True, 2, 70)]
    assert bench_pairs.tally(runs) == (1, 5, 220)
    assert bench_pairs.tally([]) == (0, 0, 0)


@pytest.mark.parametrize("parent, change, want", [
    ((0, 0, 100), (0, 0, 90), "failed share held"),
    ((0, 0, 100), (0, 1, 1000), "failed share rose"),
    # a lower count over fewer operations is a larger share
    ((0, 2, 1000), (0, 1, 100), "failed share rose"),
    ((0, 2, 100), (0, 2, 200), "failed share held"),
    ((0, 0, 0), (0, 1, 10), "failed share rose"),
    ((0, 0, 10), (0, 0, 0), "failed share held")])
def test_failure_verdict_compares_shares(bench_pairs, parent, change, want):
    assert bench_pairs.failure_verdict(parent, change) == want


def test_main_prints_each_sides_failures(bench_pairs, tmp_path, monkeypatch,
                                         capsys):
    bench = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    metrics = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}

    def fake_run(checkout, workload, seed, seconds):
        # the change's second run is wrong and fails 4 of its operations
        bad = checkout.name == "change" and seed == 101
        return {**run(not bad, 4 if bad else 0, 50), "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main([str(tmp_path), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "3",
                             "--seed", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "  parent: 0 of 3 runs not correct, 0 of 150 operations failed",
        "  change: 1 of 3 runs not correct, 4 of 150 operations failed: "
        "failed share rose"]
