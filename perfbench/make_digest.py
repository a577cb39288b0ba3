#!/usr/bin/env python3
"""Regenerate ``digest.json``: simulated statistics of every kernel run the
workloads check.

For each (application, parameters, configuration) a workload can check, the
digest holds the SHA-256 of the kernel's op counts and its simulated cycle
count (see ``checks.stats_digest``).  Run from the root of a checkout after
a change that is meant to alter what the kernels issue:

    python3 perfbench/make_digest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))


def entries() -> dict:
    from checks import digest_key, stats_digest
    from repro.core import config_family
    from repro.runtime import ExperimentSpec

    import paper_suite
    import service_mix
    import sweep_families

    out: dict = {}

    def add(app, params, config, run_app):
        key = digest_key(app, params, config)
        value = stats_digest(run_app(config).counters)
        if out.setdefault(key, value) != value:
            raise SystemExit(f"two different kernels share the key {key}")

    spec_rows = [(app, metric, params, family) for app, metric, family, params in
                 sweep_families.FAMILIES + sweep_families.TINY_FAMILIES]
    spec_rows += list(service_mix.REQUESTS + service_mix.TINY_REQUESTS)
    for app, metric, params, family in spec_rows:
        spec = ExperimentSpec.create(app, metric, **params)
        for config in (None, *config_family(family).values()):
            add(app, params, config, spec.run_app)
    for tiny in (False, True):
        for app, (_, params, run_app, configs) in paper_suite.gpu_apps(
                paper_suite._scale(tiny)).items():
            for config in (None, *configs.values()):
                add(app, params, config, run_app)
    from repro.apps import art, gromacs, sphinx

    modules = {"art": art, "gromacs": gromacs, "sphinx": sphinx}
    for app, names in paper_suite.CPU_CONFIGS.items():
        for name in names:
            config = None if name is None else paper_suite._mul_config(name)
            add(app, {}, config, modules[app].run)
    return out


def main() -> int:
    digest = {"entries": dict(sorted(entries().items()))}
    path = HERE / "digest.json"
    path.write_text(json.dumps(digest, indent=1) + "\n")
    print(f"{len(digest['entries'])} entries written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
