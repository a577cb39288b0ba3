#!/usr/bin/env python3
"""Self-test: every workload's code path and checks at tiny scale.

    python3 perfbench/selftest.py

Runs each workload with ``--tiny`` in both modes and checks the result
line: the keys, ``correct``, the failed share (only the known binary64
co-simulation fails, once per paper-suite pass), and that every metric
``BENCHMARK.json`` names is printed with its unit.  It also checks that
the benchmark refuses to run, without a result line, in a directory that
holds only the benchmark.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int, proc) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("correct is not true: " + " | ".join(
            line for line in proc.stderr.splitlines()
            if line.startswith("check failed")))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    if workload == "paper-suite":
        # One known failure per pass, out of the same items each pass.
        if result["failed"] == 0 or result["attempted"] % result["failed"]:
            problems.append(f"failed {result['failed']} of {result['attempted']}")
    elif result["failed"]:
        problems.append(f"failed {result['failed']}")
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not isinstance(
                got["value"], (int, float)):
            problems.append(f"metric {metric['name']}: {got}")
    return problems


def main() -> int:
    ok = True
    for workload in (w["name"] for w in CONFIG["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            problems = check_result(workload, trace, proc)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}", flush=True)
            ok &= not problems
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "paper-suite", "--seed", "1", "--seconds",
                    "1", "--trace", "0"], cwd=bare)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"bare directory: {'refused' if refused else 'NOT refused'}")
        ok &= refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
