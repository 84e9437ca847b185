#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree in pairs, and
write the paired summary as JSON.

    python3 scripts/bench_pair.py [--parent HEAD] --out BENCH_24.json

The parent is exported with ``git archive REV | tar -x`` into a temporary
directory.  For each workload of ``BENCHMARK.json``, pair i of 10 runs the
benchmark command with ``--seed i --trace 0`` once on each side, for the
benchmark's ``run_seconds``; the parent goes first in odd pairs and the
working tree in even ones.  Then one ``--trace 1`` run per side gives the
per-layer view.

For each workload and end-to-end metric the file holds each side's median
and quartiles over its runs and the number of pairs each side won, ties
counting for neither.  It also records both git SHAs (the working tree's as
its HEAD and whether it has uncommitted changes) and the Python version.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def bench(command, root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {root} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    """Median and quartiles (``statistics.quantiles(values, n=4)``); one value
    is its own quartiles."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(metrics_spec, pairs) -> dict:
    """The summary of one workload's paired runs.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per pair,
    each result a JSON line of ``perfbench/run.py --trace 0``."""
    runs = {side: [p[side] for p in pairs] for side in SIDES}
    out = {
        "pairs": len(pairs),
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "end_to_end": {},
    }
    for m in metrics_spec:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        out["end_to_end"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare the working tree with")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    command, seconds = spec["command"], spec["run_seconds"]
    result = {
        "parent": {"sha": git("rev-parse", f"{args.parent}^{{commit}}")},
        "change": {"sha": git("rev-parse", "HEAD"), "uncommitted": bool(git("status", "--porcelain"))},
        "python": platform.python_version(),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        roots = {"parent": Path(parent_dir), "change": ROOT}
        export(args.parent, roots["parent"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(1, PAIRS + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {side: bench(command, roots[side], workload, i, seconds, 0) for side in order}
                pairs.append(pair)
                print(f"{workload} pair {i}: {json.dumps(pair)}", file=sys.stderr, flush=True)
            summary = summarize(spec["end_to_end"], pairs)
            summary["per_layer"] = {
                side: bench(command, roots[side], workload, 1, seconds, 1)["metrics"] for side in SIDES
            }
            result["workloads"][workload] = summary
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
