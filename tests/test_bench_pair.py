import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pair.py")
spec = importlib.util.spec_from_file_location("bench_pair", PATH)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

METRICS = [
    {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_letters_per_s", "unit": "letters/s", "better": "higher", "bound": 0.25},
]


def result(total_s, letters_per_s, correct=True, failed=0):
    metrics = {"total_s": total_s, "run_letters_per_s": letters_per_s}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "-"} for name, v in metrics.items()},
    }


def test_summary_counts_wins_by_the_better_direction():
    pairs = [
        {"parent": result(1.0, 100), "change": result(0.5, 200)},
        {"parent": result(1.2, 110), "change": result(1.2, 90)},  # a tie, then a loss
        {"parent": result(0.8, 120), "change": result(0.9, 300, correct=False, failed=1)},
        {"parent": result(1.4, 130), "change": result(0.7, 250)},
        {"parent": result(1.0, 140), "change": result(0.6, 260)},
    ]
    got = bench_pair.summarize(METRICS, pairs)
    assert got["pairs"] == 5
    assert got["correct"] == {"parent": True, "change": False}
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 50, "change": 50}
    total = got["end_to_end"]["total_s"]
    assert (total["change_wins"], total["parent_wins"]) == (3, 1)
    assert total["parent"] == {"q1": pytest.approx(0.9), "median": 1.0, "q3": pytest.approx(1.3)}
    assert total["change"]["median"] == 0.7
    assert (total["unit"], total["better"], total["bound"]) == ("s", "lower", 0.25)
    rate = got["end_to_end"]["run_letters_per_s"]
    assert (rate["change_wins"], rate["parent_wins"]) == (4, 1)
    assert rate["parent"]["median"] == 120 and rate["change"]["median"] == 250


def test_one_pair_is_its_own_quartiles():
    got = bench_pair.summarize(METRICS, [{"parent": result(2.0, 10), "change": result(1.0, 20)}])
    assert got["end_to_end"]["total_s"]["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert got["end_to_end"]["run_letters_per_s"]["change_wins"] == 1
