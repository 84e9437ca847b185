#!/usr/bin/env python3
"""Run workloads repeatedly and print the spread of every end-to-end metric.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Each run is a fresh ``perfbench/run.py`` process with its own seed (first-seed,
first-seed + 1, ...) and the run length of ``BENCHMARK.json``.  For each metric
the table gives the sample count, the quartiles and the median of the runs
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the metric's bound; a spread at or
above a third of the bound is marked ``WIDE``.  The bounds in
``BENCHMARK.json`` are set from this output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    wide = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)},"
              f" failed share: {', '.join(f'{s:.6f}' for s in shares)}")
        print(f"  {'metric':<22s} {'n':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "WIDE" if spread >= m["bound"] / 3 else ""
            wide += bool(flag)
            print(f"  {m['name']:<22s} {len(values):3d} {q1:12.5g} {med:12.5g} {q3:12.5g}"
                  f" {spread:7.3f} {m['bound']:6.2f} {flag}")
        print(flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
