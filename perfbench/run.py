#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload roundtrip-small --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  The
run sets up ``SETUP_REPEATS`` times, then runs whole passes (translate, verify,
run) in a closed loop, one after the other in this single thread, until
another pass would end after ``--seconds``; at least one pass always runs.
Every figure is the median over the passes (or set-ups) of the run.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` every round is an untraced pass followed by a traced one,
and the metrics are the per-layer ones; ``trace.overhead_s`` is the traced
minus the untraced median pass time.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(passes, setup_times) -> dict:
    def median(f):
        return statistics.median(f(p) for p in passes)

    return {
        "setup_s": statistics.median(setup_times),
        "total_s": median(lambda p: p.total_s),
        "translate_s": median(lambda p: p.phase_s["translate"]),
        "verify_s": median(lambda p: p.phase_s["verify"]),
        "run_letters_per_s": median(lambda p: p.letters / p.simulate_s),
        "run_steps_per_letter": median(lambda p: p.steps / p.letters),
        "artifact_bytes": median(lambda p: p.artifact_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced, untraced) -> dict:
    out = {n: statistics.median(m[n] for _, m in traced) for n in traced[0][1]}
    out["trace.overhead_s"] = statistics.median(p.total_s for p, _ in traced) - statistics.median(
        p.total_s for p in untraced
    )
    return out


def phase_shares(tracer, p) -> str:
    """Share of each phase's time spent in each layer's own code."""
    lines = []
    for phase, seconds in p.phase_s.items():
        shares = sorted(
            ((s / seconds, layer) for (ph, layer), s in tracer.phase_self_s.items() if ph == phase),
            reverse=True,
        )
        cells = ", ".join(f"{layer} {share:.0%}" for share, layer in shares if share >= 0.005)
        lines.append(f"  {phase:<9s} {seconds:8.3f} s: {cells}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "twofst" / "__init__.py").is_file():
        print(f"error: no twofst package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, Pass, load_library

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    layer_names = [m["name"] for m in metrics_spec if m["name"] != "trace.overhead_s"]
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    def one_pass(lib, inputs, tracer=None):
        p = Pass(tracer)
        start = perf_counter()
        workload.run_pass(lib, inputs, p)
        p.total_s = perf_counter() - start
        return p

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build_dir) as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            lib = load_library()
            inputs = workload.setup(lib, args.seed, workdir)
            setup_times.append(perf_counter() - start)

        untraced, traced = [], []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            untraced.append(one_pass(lib, inputs))
            if args.trace:
                tracer = Tracer()
                tracer.install(lib)
                try:
                    p = one_pass(lib, inputs, tracer)
                finally:
                    tracer.uninstall()
                traced.append((p, tracer.metrics(layer_names)))
                print(f"{workload.name}, traced pass:\n{phase_shares(tracer, p)}", file=sys.stderr)
            now = perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break

    passes = untraced + [p for p, _ in traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [what for p in passes for what in p.problems]
    for what in dict.fromkeys(problems):
        print(f"wrong: {what}", file=sys.stderr)
    if args.trace:
        values = per_layer(traced, untraced)
    else:
        values = end_to_end(untraced, setup_times)
    print(
        f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced passes,"
        f" {attempted} operations attempted, {failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
