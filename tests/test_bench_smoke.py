import importlib.util
import json
import os

PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_smoke.py")
spec = importlib.util.spec_from_file_location("bench_smoke", PATH)
bench_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_smoke)

BOUNDS = {"run_steps_per_letter": 0.05, "artifact_bytes": 0.05}


def runner_output(correct=True, failed=0, steps=7.0, size=1000):
    """What ``perfbench/run.py`` prints: progress lines, then the verdict."""
    metrics = {"run_steps_per_letter": steps, "artifact_bytes": size, "total_s": 0.2}
    verdict = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "-"} for name, v in metrics.items()},
    }
    return "warming up\n" + json.dumps(verdict) + "\n"


def bench_file(path, steps, size):
    end_to_end = {m: {"change": {"median": v}} for m, v in (("run_steps_per_letter", steps), ("artifact_bytes", size))}
    path.write_text(json.dumps({"workloads": {"w": {"end_to_end": end_to_end}}}))


def check(stdout, medians, source="BENCH_3.json"):
    return bench_smoke.verdict_failure("w", stdout, BOUNDS, medians, source)


def test_the_newest_bench_file_is_the_one_with_the_largest_number(tmp_path):
    bench_file(tmp_path / "BENCH_9.json", 7.0, 1000)
    bench_file(tmp_path / "BENCH_27.json", 8.0, 2000)
    medians, source = bench_smoke.newest_medians(tmp_path)
    assert source == "BENCH_27.json"
    assert medians["w"]["end_to_end"]["artifact_bytes"]["change"]["median"] == 2000


def test_a_correct_pass_within_the_bounds_passes(tmp_path):
    bench_file(tmp_path / "BENCH_3.json", 7.0, 1000)
    medians, _ = bench_smoke.newest_medians(tmp_path)
    assert check(runner_output(steps=7.0 * 1.04, size=1050), medians) is None
    assert check(runner_output(steps=6.0, size=900), medians) is None


def test_a_wrong_output_or_a_failed_operation_fails():
    for out in (runner_output(correct=False), runner_output(failed=1)):
        assert check(out, {}) == "w: wrong outputs or failed operations"


def test_a_metric_over_its_bound_fails(tmp_path):
    bench_file(tmp_path / "BENCH_3.json", 7.0, 1000)
    medians, _ = bench_smoke.newest_medians(tmp_path)
    assert check(runner_output(size=1051), medians) == "w: artifact_bytes 1051 exceeds 1000 by more than 5%"
    assert check(runner_output(steps=7.4), medians) == "w: run_steps_per_letter 7.4 exceeds 7 by more than 5%"


def test_without_a_bench_file_only_the_verdict_is_checked(tmp_path):
    assert bench_smoke.newest_medians(tmp_path) == ({}, None)
    assert check(runner_output(steps=1e6, size=10**9), {}, None) is None
    assert check(runner_output(failed=2), {}, None) == "w: wrong outputs or failed operations"
