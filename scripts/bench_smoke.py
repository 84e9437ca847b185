#!/usr/bin/env python3
"""Run one pass of each workload of ``BENCHMARK.json`` and check its verdict.

    python3 scripts/bench_smoke.py

``perfbench/run.py`` exits 0 even when a pass computes a wrong output, so the
verdict line it prints last is checked: every output must be correct and no
operation may fail.  Steps per letter and artifact bytes do not depend on the
host, so they are also held to the change medians of the newest
``BENCH_*.json`` within their ``BENCHMARK.json`` bounds.  The script exits
with the first failure's message.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
HOST_FREE = ("run_steps_per_letter", "artifact_bytes")


def newest_medians(root: Path) -> tuple[dict, Optional[str]]:
    """The ``workloads`` of the ``BENCH_<n>.json`` with the largest n, and
    its file name; ``({}, None)`` when there is none."""
    benches = sorted(root.glob("BENCH_*.json"), key=lambda p: int(p.stem[len("BENCH_"):]))
    if not benches:
        return {}, None
    return json.loads(benches[-1].read_text())["workloads"], benches[-1].name


def verdict_failure(name: str, stdout: str, bounds: dict, medians: dict, source: Optional[str]) -> Optional[str]:
    """Why the pass of workload ``name``, whose runner printed ``stdout``,
    fails the smoke check, or None when it passes."""
    verdict = json.loads(stdout.splitlines()[-1])
    print(name, verdict)
    if verdict["correct"] is not True or verdict["failed"] != 0:
        return f"{name}: wrong outputs or failed operations"
    for metric in HOST_FREE if name in medians else ():
        value = verdict["metrics"][metric]["value"]
        median = medians[name]["end_to_end"][metric]["change"]["median"]
        print(f"{name} {metric}: {value:g} against {median:g} in {source}")
        if value > median * (1 + bounds[metric]):
            return f"{name}: {metric} {value:g} exceeds {median:g} by more than {bounds[metric]:.0%}"
    return None


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians, source = newest_medians(ROOT)
    for workload in spec["workloads"]:
        name = workload["name"]
        argv = ["perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "0"]
        out = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        failure = verdict_failure(name, out.stdout, bounds, medians, source)
        if failure:
            sys.exit(failure)


if __name__ == "__main__":
    main()
