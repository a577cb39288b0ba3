#!/usr/bin/env python3
"""Steadiness check: run each workload k times, alternating between
workloads, and compare every end-to-end metric's spread with its bound.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads service-mix --first-seed 11

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, the bound from ``BENCHMARK.json``, and the bound the
spread would support (three times the spread, at most 0.25).  Each run's
sample counts (set-up launches, cold and warm operations, samples beyond
the tail percentile) are printed too.  It exits non-zero when a spread
other than ``setup_s``'s exceeds its bound, when any run failed a check,
or when the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples = {}
    for line in proc.stderr.splitlines():
        if line.startswith('{"samples"'):
            samples = json.loads(line)["samples"]
        elif line.startswith("check failed"):
            print(f"  {workload} seed {seed}: {line}")
    return result, samples


def main(argv=None) -> int:
    config = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:  # alternate, so drift hits every workload alike
            seed = args.first_seed + i
            start = time.perf_counter()
            result, samples = run_once(w, seed, args.seconds)
            samples["run_s"] = round(time.perf_counter() - start, 1)
            runs[w].append(result)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{values} samples={json.dumps(samples)}", flush=True)

    ok = True
    for w in workloads:
        results = runs[w]
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        if not all(r["correct"] for r in results):
            print(f"{w}: a run failed its output checks")
            ok = False
        print(f"\n{w} ({len(results)} runs, failed share "
              f"{' / '.join(str(s) for s in sorted(shares))})")
        print(f"  {'metric':20s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'supports':>8s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            supports = min(0.25, math.ceil(300 * spread) / 100)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, ok = "  EXCEEDS BOUND", False
            elif name != "setup_s" and spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:20s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound:6.2f} {supports:8.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
