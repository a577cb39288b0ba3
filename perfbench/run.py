#!/usr/bin/env python3
"""End-to-end benchmark of the repro package, split by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-families --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one timed run (telemetry
off).  ``--trace 1`` repeats the workload untraced in this process, then
traced (``REPRO_TELEMETRY=trace`` plus the wrappers in ``tracing.py``) in a
child process, and prints the per-layer metrics with the tracing overhead
and the unattributed share.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Failed checks
and sample counts go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("sweep-families", "paper-suite", "service-mix")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: tiny inputs, few samples")
    parser.add_argument("--traced-child", default=None,
                        help=argparse.SUPPRESS)  # internal: traced half
    return parser.parse_args(argv)


def workload_module(name: str):
    import paper_suite
    import service_mix
    import sweep_families

    return {"sweep-families": sweep_families, "paper-suite": paper_suite,
            "service-mix": service_mix}[name]


def run_workload(args, root: Path, traced: bool, setup: bool) -> dict:
    from common import Bench
    from pace import Pace

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / ".perfbench"))
    try:
        # Pacing samples would count as unattributed time in a traced run.
        bench = Bench(root=root, workdir=workdir, seed=args.seed,
                      seconds=args.seconds, tiny=args.tiny, traced=traced,
                      setup=setup, pace=Pace(enabled=not traced))
        module = workload_module(args.workload)
        if not traced or args.workload == "service-mix":
            return module.run(bench)
        from repro import telemetry

        import tracing

        tracing.install_wrappers()
        telemetry.reset()
        with telemetry.override("trace"):
            outcome = module.run(bench)
        spans, text = bench.telemetry
        layers = tracing.layer_metrics(spans, tracing.parse_prometheus(text),
                                       outcome["window"])
        layers.update(outcome["layers"])
        outcome["layers"] = layers
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_layers(args, root: Path) -> dict:
    """Run the traced half in a fresh interpreter (empty module memos)."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=root / ".perfbench")
    os.close(fd)
    try:
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--traced-child", path]
        if args.tiny:
            cmd.append("--tiny")
        subprocess.run(cmd, cwd=root, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        return json.loads(Path(path).read_text())
    finally:
        os.unlink(path)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Children inherit an ignored SIGINT (a shell's background job); the
    # servers stop on SIGINT, and SIGTERM must run the cleanup below.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    from common import PROGRAM_ENV, program_src

    src = program_src(root)
    if src is None:
        print(f"no program source under {root}/src: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    (root / ".perfbench").mkdir(exist_ok=True)

    from common import end_to_end, raw_cost_ms, sample_counts
    from tracing import per_layer_output

    if args.traced_child:
        outcome = run_workload(args, root, traced=True, setup=False)
        Path(args.traced_child).write_text(json.dumps({
            "layers": outcome["layers"],
            "cost_ms": raw_cost_ms(outcome["timings"]),
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "failures": outcome["checker"].failures,
        }))
        return 0

    outcome = run_workload(args, root, traced=False, setup=args.trace == 0)
    failures = list(outcome["checker"].failures)
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        from common import import_times_ms

        child = traced_layers(args, root)
        failures += child["failures"]
        attempted += child["attempted"]
        failed += child["failed"]
        layers = dict(child["layers"])
        layers.update(import_times_ms(root))
        layers["telemetry.trace_overhead"] = (
            child["cost_ms"] / raw_cost_ms(outcome["timings"]) - 1)
        metrics = per_layer_output(layers)
    else:
        metrics = end_to_end(outcome["timings"])
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"samples": sample_counts(outcome["timings"]),
                      "checks_passed": outcome["checker"].passed}),
          file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
