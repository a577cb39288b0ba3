"""Output checks shared by the workloads.

Each check tests a property of the method, not a copy of today's output:
the precise configuration is perfect and saves nothing, a unit the kernel
never issues changes nothing, warm answers equal cold ones and an
in-process evaluation.  Simulated statistics (op counts, simulated cycles)
are compared with ``digest.json``, which ``make_digest.py`` regenerates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

DIGEST_PATH = Path(__file__).resolve().parent / "digest.json"

#: Quality of an output identical to the reference, per quality metric.
PERFECT = {"mae": 0.0, "ssim": 1.0}

#: Operation name -> unit that executes it (``sub`` runs on the adder).
OP_UNIT = {"add": "add", "sub": "add", "mul": "mul", "fma": "fma",
           "div": "div", "rcp": "rcp", "rsqrt": "rsqrt", "sqrt": "sqrt",
           "log2": "log2"}


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list = []
        self.passed = 0

    def check(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return bool(ok)


def unused_units(counters) -> list:
    """Units none of whose operations the kernel issued."""
    issued = {OP_UNIT[op] for op, n in counters.op_counts().items() if n}
    return sorted(set(OP_UNIT.values()) - issued)


def same_evaluation(a, b) -> bool:
    """Bit-identical quality, savings, breakdown and output."""
    return (a.quality == b.quality
            and asdict(a.savings) == asdict(b.savings)
            and a.breakdown.watts == b.breakdown.watts
            and same_output(a.output, b.output))


def same_output(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and bool(
            np.array_equal(a, b, equal_nan=True))
    return a == b


def output_sha256(output) -> str:
    return hashlib.sha256(np.ascontiguousarray(output).tobytes()).hexdigest()


def no_savings(savings) -> bool:
    return savings.system_savings == 0.0 and savings.arithmetic_savings == 0.0


def check_precise_and_unused(checker: Checker, label: str, metric: str,
                             framework) -> None:
    """Precise is perfect and free; an unissued unit changes nothing."""
    from repro.core import IHWConfig

    precise = framework.evaluate(IHWConfig.precise())
    checker.check(precise.quality == PERFECT[metric],
                  f"{label}: precise quality {precise.quality!r} is not perfect")
    checker.check(no_savings(precise.savings),
                  f"{label}: precise configuration reports savings")
    reference = framework.reference
    unused = unused_units(reference.counters)
    checker.check(bool(unused), f"{label}: kernel issues every unit")
    for unit in unused[:1]:
        ev = framework.evaluate(IHWConfig.units(unit))
        checker.check(same_output(ev.output, reference.output),
                      f"{label}: unissued unit {unit} changed the output")
        checker.check(no_savings(ev.savings),
                      f"{label}: unissued unit {unit} reports savings")


# ----------------------------------------------------------------------
# Simulated-statistics digest
# ----------------------------------------------------------------------
def digest_key(app: str, params: dict, config) -> str:
    name = "precise" if config is None else config.cache_key()
    return f"{app}|{json.dumps(params, sort_keys=True)}|{name}"


def stats_digest(counters) -> str:
    """SHA-256 of a kernel's op counts and its simulated cycle count."""
    from repro.gpu import simulate_kernel

    try:
        cycles = simulate_kernel(counters).cycles
    except ValueError:
        cycles = None
    doc = {
        "arith": sorted([op, path, int(n)]
                        for (op, path), n in counters.arith.items()),
        "int_ops": int(counters.int_ops),
        "mem_ops": int(counters.mem_ops),
        "ctrl_ops": int(counters.ctrl_ops),
        "threads": int(counters.threads),
        "cycles": cycles,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digest() -> dict:
    return json.loads(DIGEST_PATH.read_text())["entries"]


def check_digest(checker: Checker, digest: dict, app: str, params: dict,
                 config, counters) -> None:
    key = digest_key(app, params, config)
    expected = digest.get(key)
    checker.check(expected is not None, f"no digest entry for {key}")
    if expected is not None:
        checker.check(stats_digest(counters) == expected,
                      f"simulated statistics changed for {key}")


class Recorder:
    """``run_app`` wrapper that keeps each run's result by configuration."""

    def __init__(self, run_app):
        self._run_app = run_app
        self.results: dict = {}

    def __call__(self, config):
        result = self._run_app(config)
        self.results[None if config is None else config.cache_key()] = result
        return result

    def counters(self, config):
        return self.results[None if config is None else config.cache_key()].counters
