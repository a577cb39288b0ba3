"""Set-up probe: a fresh interpreter from start to ready-for-first-work.

Run by the benchmark with ``PYTHONPATH=src`` from the checkout root.  It
imports what a ``repro sweep`` pays for before its first evaluation (numpy,
scipy through ``repro.quality.metrics``, the CLI), resolves the specs and
quality metrics the workloads use, and prints ``ready``.
"""

import numpy  # noqa: F401

import repro.cli  # noqa: F401
import repro.quality.metrics  # noqa: F401  (imports scipy)
from repro.core import config_family
from repro.runtime import ExperimentSpec

for app, metric, params in (
    ("hotspot", "mae", {"rows": 48, "cols": 48, "iterations": 20}),
    ("raytracing", "ssim", {"width": 48, "height": 48}),
):
    ExperimentSpec.create(app, metric, **params).quality_metric()
for family in ("threshold", "multiplier", "units"):
    config_family(family)
print("ready", flush=True)
