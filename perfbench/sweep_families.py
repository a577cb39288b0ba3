"""Workload ``sweep-families``: in-process ``ExperimentRunner.sweep`` with one
worker on a fresh cache, as ``repro sweep --workers 1`` runs it.

A cold sweep runs a family on a fresh cache with a fresh runner (reference
run, kernels, cache writes, manifests).  The run starts with a cold pass,
every family once, in this fresh process; its cache answers the warm passes
(the same sweeps, all hits).  Then it alternates a slice of warm passes with
one cold sweep of the next family, in seeded rounds of every family, on a
new cache, until the run's time is up.
Those later cold sweeps find the module memos (the hotspot starting trace)
filled, as every sweep but the first of a ``repro serve`` process does.  One
operation is one family sweep; one configuration is one swept configuration.
"""

from __future__ import annotations

import json
import random
import shutil
import time

from checks import (Checker, Recorder, check_digest, check_precise_and_unused,
                    load_digest, output_sha256, same_evaluation)
from common import MIN_WARM_OPS, Timings, probe_setup, self_peak_rss_mb

#: (app, metric, family, params): the CLI default 48x48x20 hotspot grid and
#: a 128x128x20 one (about 2.3K and 16K elements per op call), and the
#: raytracing multiplier family at the CLI default 48x48 image.
FAMILIES = (
    ("hotspot", "mae", "threshold", {"rows": 48, "cols": 48, "iterations": 20}),
    ("hotspot", "mae", "threshold", {"rows": 128, "cols": 128, "iterations": 20}),
    ("raytracing", "ssim", "multiplier", {"width": 48, "height": 48}),
)
TINY_FAMILIES = (
    ("hotspot", "mae", "threshold", {"rows": 12, "cols": 12, "iterations": 3}),
    ("raytracing", "ssim", "multiplier", {"width": 16, "height": 16}),
)

WARM_SLICE_S = 0.5  # warm passes between two cold sweeps


def families(tiny: bool):
    from repro.core import config_family
    from repro.runtime import ExperimentSpec

    return [(ExperimentSpec.create(app, metric, **params), metric, params,
             config_family(family))
            for app, metric, family, params in
            (TINY_FAMILIES if tiny else FAMILIES)]


def _sweep(cache_root, spec, configs):
    from repro.runtime import ExperimentRunner, ResultCache

    runner = ExperimentRunner(max_workers=1, cache=ResultCache(cache_root))
    start = time.perf_counter()
    results = runner.sweep(spec, configs)
    return results, (start, time.perf_counter()), runner.stats


def fingerprint(results_per_family) -> list:
    """Quality, savings and output hash of every evaluation, as JSON values."""
    return json.loads(json.dumps([
        {name: [ev.quality, vars(ev.savings), output_sha256(ev.output)]
         for name, ev in results.items()} for results in results_per_family]))


def cold_pass(workdir, sweeps, pace) -> dict:
    """Sweep every family once on a fresh cache under ``workdir``.

    Returns the ``(start, end)`` of each family sweep, a fingerprint of
    every evaluation (quality, savings, output hash) and the signature
    groups.  Calibration samples bracket every sweep.
    """
    times, swept, groups = [], [], set()
    pace.sample(3)
    for spec, _, _, configs in sweeps:
        results, span, stats = _sweep(workdir / "cache", spec, configs)
        pace.sample(3)
        times.append(span)
        swept.append(results)
        groups.update(f"{spec.app}|{g}" for g in stats.signature_groups)
    return {"times": times, "fingerprint": fingerprint(swept),
            "groups": len(groups)}


def run(bench) -> dict:
    setup = probe_setup(bench) if bench.setup else []
    sweeps = families(bench.tiny)
    kinds = range(len(sweeps))
    cache_root = bench.workdir / "cache"
    rng = random.Random(bench.seed)
    n_configs = sum(len(configs) for _, _, _, configs in sweeps)
    checker = Checker()

    started = time.perf_counter()
    window_start = time.time()
    first = cold_pass(bench.workdir, sweeps, bench.pace)
    cold = {k: [first["times"][k]] for k in kinds}
    warm = {k: [] for k in kinds}
    attempted = n_configs
    min_ops = 4 if bench.tiny else MIN_WARM_OPS
    slice_s = WARM_SLICE_S / 10 if bench.tiny else WARM_SLICE_S
    kept, cold_order, mismatched = [], [], 0
    while True:
        slice_start = time.perf_counter()
        while time.perf_counter() - slice_start < slice_s:
            answers = [None] * len(sweeps)
            for k in rng.sample(kinds, len(sweeps)):  # seeded warm order
                spec, _, _, configs = sweeps[k]
                answers[k], span, _ = _sweep(cache_root, spec, configs)
                warm[k].append(span)
            bench.pace.sample()
            attempted += n_configs
            kept = [kept[0] if kept else answers, answers]  # first and latest
        if (time.perf_counter() - started >= bench.seconds
                and sum(map(len, warm.values())) >= min_ops):
            break
        cold_order = cold_order or rng.sample(kinds, len(sweeps))
        k = cold_order.pop()
        spec, _, _, configs = sweeps[k]
        fresh = bench.workdir / f"cold{sum(map(len, cold.values()))}"
        bench.pace.sample(3)
        results, span, _ = _sweep(fresh, spec, configs)
        bench.pace.sample(3)
        shutil.rmtree(fresh)
        cold[k].append(span)
        attempted += len(configs)
        mismatched += fingerprint([results]) != first["fingerprint"][k:k + 1]
    window = (window_start, time.time())
    peak = self_peak_rss_mb()
    bench.end_timing()

    checker.check(not mismatched,
                  f"{mismatched} later cold sweeps differ from the first")
    for answers in kept:
        checker.check(fingerprint(answers) == first["fingerprint"],
                      "warm sweeps differ from the cold pass")
    _check_evaluations(checker, sweeps, kept[-1], rng)

    timings = Timings(
        setup=setup, cold=cold, warm=warm,
        configs={k: len(sweeps[k][3]) for k in kinds}, peak_rss_mb=peak,
        pace=bench.pace)
    return {"timings": timings, "attempted": attempted, "failed": 0,
            "checker": checker, "window": window,
            "layers": {"runtime.signature_groups": first["groups"]}}


def _check_evaluations(checker, sweeps, swept, rng) -> None:
    """Precise/unissued-unit properties, a fresh in-process evaluation of a
    seed-chosen configuration, and the simulated-statistics digest."""
    from repro.framework import PowerQualityFramework

    digest = load_digest()
    for (spec, metric, params, configs), results in zip(sweeps, swept):
        recorder = Recorder(spec.run_app)
        framework = PowerQualityFramework(run_app=recorder,
                                          quality_metric=spec.quality_metric(),
                                          spec=spec)
        check_precise_and_unused(checker, spec.describe(), metric, framework)
        name = rng.choice(sorted(configs))
        checker.check(same_evaluation(framework.evaluate(configs[name]),
                                      results[name]),
                      f"{spec.describe()} {name}: in-process != swept")
        for config in (None, configs[name]):
            check_digest(checker, digest, spec.app, params, config,
                         recorder.counters(config))
