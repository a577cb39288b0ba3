"""Shared pieces of the end-to-end benchmark: the run context, set-up
launches, percentiles, peak memory and the end-to-end metric table.

Every workload reduces its measurements to one :class:`Timings`, and
:func:`end_to_end` turns that into the metrics ``BENCHMARK.json`` names, so
each metric has one definition across workloads (see README.md).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pace import Pace

HERE = Path(__file__).resolve().parent

#: Environment variables of the program that would change what is measured.
#: Timed runs use the defaults a user gets: telemetry off, the reference
#: backend selection, no injected faults, the cache where the run puts it.
PROGRAM_ENV = ("REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR", "REPRO_BACKEND",
               "REPRO_FAULTS", "REPRO_CACHE", "REPRO_CACHE_DIR",
               "REPRO_THREADS")


def program_src(root: Path) -> Path | None:
    """The program's source tree in the checkout ``root``, if present."""
    src = root / "src"
    return src if (src / "repro" / "__init__.py").is_file() else None


def child_env(root: Path, **extra) -> dict:
    """Environment for a child interpreter that imports the checkout's repro."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


@dataclass
class Bench:
    """Everything a workload needs to know about this run."""

    root: Path  # checkout root (the working directory)
    workdir: Path  # scratch space of this run, inside the checkout
    seed: int
    seconds: float
    tiny: bool = False  # self-test scale: small inputs, few samples
    traced: bool = False  # REPRO_TELEMETRY=trace plus the layer wrappers
    setup: bool = True  # time set-up launches (off in the traced child)
    telemetry: tuple = ()  # (spans, Prometheus text) of the timed phase
    pace: Pace = field(default_factory=Pace)

    @property
    def setup_launches(self) -> int:
        return 1 if self.tiny else 5

    def end_timing(self) -> None:
        """Keep the timed phase's telemetry, so the checks are not counted."""
        if self.traced:
            from repro import telemetry

            self.telemetry = (telemetry.get_tracer().drain(),
                              telemetry.get_registry().prometheus_text())


@dataclass
class Timings:
    """Raw measurements of one workload run.

    Operations are grouped by kind (a family sweep, a suite item, a
    request for one app); every operation of a kind does the same work.
    Each is recorded as its ``(start, end)`` on ``time.perf_counter``.
    """

    setup: list  # (start, end) of each timed set-up launch
    cold: dict  # kind -> (start, end) of each cold operation of that kind
    warm: dict  # kind -> (start, end) of each warm operation of that kind
    configs: dict  # kind -> configurations one operation answers
    peak_rss_mb: float
    pace: Pace

    def seconds(self, ops: dict, scaled: bool = True) -> dict:
        """Operation times by kind, at the reference pace or as measured."""
        if scaled:
            return {k: [self.pace.scaled(*op) for op in v]
                    for k, v in ops.items()}
        return {k: [end - start for start, end in v] for k, v in ops.items()}


#: The warm tail reported on standard error, and the warm operations a run
#: needs for at least ten samples beyond it.
TAIL_Q = 0.90
MIN_WARM_OPS = 100

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_ms_per_config", "ms"),
    ("warm_ms_per_config", "ms"),
    ("warm_ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of all at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def pass_seconds(ops: dict) -> float:
    """One operation of every kind, each at the median of its times."""
    return sum(statistics.median(samples) for samples in ops.values())


def raw_cost_ms(t: Timings) -> float:
    """Cold plus warm milliseconds per configuration, as measured."""
    return 1000.0 * (pass_seconds(t.seconds(t.cold, scaled=False))
                     + pass_seconds(t.seconds(t.warm, scaled=False))) \
        / sum(t.configs.values())


def end_to_end(t: Timings) -> dict:
    """The metrics of BENCHMARK.json; times at the reference pace."""
    configs = sum(t.configs.values())
    warm = pass_seconds(t.seconds(t.warm))
    values = {
        # Traced runs skip the set-up launches.
        "setup_s": statistics.median(t.pace.scaled(*launch)
                                     for launch in t.setup) if t.setup else None,
        "cold_ms_per_config": 1000.0 * pass_seconds(t.seconds(t.cold)) / configs,
        "warm_ms_per_config": 1000.0 * warm / configs,
        "warm_ops_per_s": len(t.warm) / warm,
        "peak_rss_mb": t.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def sample_counts(t: Timings) -> dict:
    """How many samples stand behind each reported statistic, and the
    operation times as measured, not rescaled: per configuration, the
    median operation and the warm tail (reported here, not as end-to-end
    metrics)."""
    raw_cold = t.seconds(t.cold, scaled=False)
    raw_warm = t.seconds(t.warm, scaled=False)
    cold = [s for samples in raw_cold.values() for s in samples]
    warm = [s for samples in raw_warm.values() for s in samples]
    configs = sum(t.configs.values())
    pace = t.pace.seconds
    return {
        "measured_setup_s": statistics.median(
            end - start for start, end in t.setup) if t.setup else None,
        "measured_cold_ms_per_config": 1000.0 * pass_seconds(raw_cold) / configs,
        "measured_warm_ms_per_config": 1000.0 * pass_seconds(raw_warm) / configs,
        "pace_samples": len(pace),
        "pace_p50_ms": 1000.0 * statistics.median(pace) if pace else None,
        "cold_p50_ms": 1000.0 * statistics.median(cold),
        "warm_p50_ms": 1000.0 * statistics.median(warm),
        "warm_p90_ms": 1000.0 * percentile(warm, TAIL_Q),
        "setup_launches": len(t.setup),
        "kinds": len(t.warm),
        "cold_ops": len(cold),
        "cold_ops_fewest_per_kind": min(map(len, t.cold.values())),
        "warm_ops": len(warm),
        "warm_ops_fewest_per_kind": min(map(len, t.warm.values())),
        "warm_beyond_p90": beyond(len(warm), TAIL_Q),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running child process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def probe_command(root: Path, importtime: bool = False) -> list:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    return cmd + [str(HERE / "setup_probe.py")]


def time_probe(root: Path) -> tuple:
    """One fresh interpreter from spawn to the probe's ``ready`` line, as
    ``(start, end)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(probe_command(root), cwd=root,
                            env=child_env(root), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r} rc={proc.returncode}")
    return start, ready


def probe_setup(bench: Bench) -> list:
    """One untimed launch, then the timed ones between calibration samples."""
    time_probe(bench.root)  # fills the bytecode and file caches
    launches = []
    for _ in range(bench.setup_launches):
        bench.pace.sample(3)
        launches.append(time_probe(bench.root))
    bench.pace.sample(3)
    return launches


def import_times_ms(root: Path) -> dict:
    """Self time of numpy, scipy and repro modules under ``-X importtime``."""
    time_probe(root)
    proc = subprocess.run(probe_command(root, importtime=True), cwd=root,
                          env=child_env(root), capture_output=True,
                          text=True, timeout=120, check=True)
    totals = {"numpy": 0, "scipy": 0, "repro": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us
    return {f"import.{name}_ms": us / 1000.0 for name, us in totals.items()}


def cold_child(bench: Bench) -> dict:
    """One cold pass in a fresh interpreter (``cold.py``)."""
    cmd = [sys.executable, str(HERE / "cold.py"), str(bench.seed)]
    if bench.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=bench.root, env=child_env(bench.root),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"cold pass failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stop_process(proc, signal_first=None, timeout: float = 10.0) -> None:
    """Stop a child and wait until it has ended."""
    if proc.poll() is None:
        try:
            if signal_first is not None:
                proc.send_signal(signal_first)
            else:
                proc.terminate()
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
