"""Workload ``paper-suite``: each paper table's and figure's public function,
called directly, with no runner and no cache.

One pass runs every item below once, in order.  A pass that is the first
in its process (empty module memos) is cold; later passes are warm.  The
run starts with a cold pass in this process, then alternates a warm pass
here with a cold pass in a fresh interpreter (``cold.py``) until the run's
time is up, to the nearest half cycle.  One operation is one item of the
list below, and counts as one configuration.

Items: Table 1 (``characterize_unit`` per unit, ``lp``/``fp`` through
``characterize_multiplier_config``); the Figure-14 design space at 32 and 64
bits (hardware ``metrics()`` plus characterization); ``cosimulate`` of the
Table-1 multiplier, the threshold adder and both Mitchell paths at 32 and 64
bits; ``PowerQualityFramework.evaluate`` for Table 5 and Figures 15-18 and 20;
art, gromacs and sphinx in float64 (Figure 21, Table 7).

The binary64 Mitchell full-path co-simulation (``fp_tr0``) disagrees with
its integer reference by 1 ULP on the same vectors for every seed, so it
fails at the 0-ULP acceptance every pass and is counted in ``failed``.
"""

from __future__ import annotations

import random
import time

import numpy as np

from checks import (Checker, Recorder, check_digest, check_precise_and_unused,
                    load_digest)
from common import Timings, cold_child, probe_setup, self_peak_rss_mb
from pace import Pace


TABLE1_UNITS = ("ifpadd", "ifpmul", "ifpdiv", "ircp", "irsqrt", "isqrt",
                "ilog2", "ifma")

#: Table-1 eps_max bounds from docs/UNITS.md, at the precision printed there.
TABLE1_BOUNDS = {"ifpmul": 0.25, "ircp": 0.05905, "ifpdiv": 0.05905,
                 "irsqrt": 1 / 9, "isqrt": 1 / 9, "lp_tr0": 1 / 9,
                 "fp_tr0": 1 / 49}

FIG14 = {
    32: {"log": (0, 5, 10, 15, 19), "full": (0, 10, 19), "bt": (10, 15, 19, 21)},
    64: {"log": (0, 24, 40, 48), "full": (), "bt": (40, 48)},
}

#: (unit, keyword arguments) co-simulated at each width.
COSIM_UNITS = (("table1_mul", {}), ("threshold_add", {"threshold": 8}),
               ("mitchell_mul", {"path": "log"}), ("mitchell_mul", {"path": "full"}))
KNOWN_COSIM_FAILURE = "mitchell_mul[64b,fp_tr0]"

CPU_CONFIGS = {"art": (None, "fp_tr44", "bt_47"),
               "gromacs": (None, "fp_tr0", "bt_44"),
               "sphinx": (None, "fp_tr0", "bt_40")}
CP_CONFIGS = ("fp_tr15", "lp_tr19", "bt_19")


def _mul_config(name):
    from repro.core import IHWConfig

    base = IHWConfig.units("mul")
    if name.startswith("bt_"):
        return base.with_multiplier("truncated", truncation=int(name[3:]))
    return base.with_multiplier("mitchell", config=name)


def _scale(tiny: bool) -> dict:
    if tiny:
        return {"char": 1 << 10, "cosim": 16, "grid": 16, "iterations": 3,
                "image": 16}
    return {"char": 1 << 14, "cosim": 200, "grid": 48, "iterations": 20,
            "image": 32}


def gpu_apps(scale: dict) -> dict:
    """App -> (metric, params, run function, configurations) of the suite."""
    from repro.apps import cp, hotspot, raytrace, srad
    from repro.core import IHWConfig
    from repro.framework import RAY_CONFIGS

    grid, iters, image = scale["grid"], scale["iterations"], scale["image"]
    return {
        "hotspot": ("mae", {"rows": grid, "cols": grid, "iterations": iters},
                    lambda c: hotspot.run(c, grid, grid, iters),
                    {"all": IHWConfig.all_imprecise()}),
        "srad": ("mae", {"rows": grid, "cols": grid, "iterations": iters},
                 lambda c: srad.run(c, grid, grid, iters),
                 {"all": IHWConfig.all_imprecise()}),
        "raytracing": ("ssim", {"width": image, "height": image},
                       lambda c: raytrace.run(c, image, image),
                       dict(RAY_CONFIGS)),
        "cp": ("mae", {"grid": grid}, lambda c: cp.run(c, grid=grid),
               {name: _mul_config(name) for name in CP_CONFIGS}),
    }


def _metric(name):
    import repro.quality as quality

    if name == "ssim":
        return lambda out, ref: quality.ssim(out, ref, data_range=1.0)
    return lambda out, ref: quality.mae(out, ref)


def suite_items(scale: dict, seed: int) -> list:
    """``[(label, thunk)]`` for one pass; frameworks are built per pass."""
    from repro import hdl, telemetry
    from repro.apps import art, gromacs, sphinx
    from repro.core import MultiplierConfig
    from repro.erroranalysis import characterize_multiplier_config, characterize_unit
    from repro.framework import PowerQualityFramework
    from repro.hardware import (bt_fp_multiplier, dw_fp_multiplier,
                                mitchell_fp_multiplier)

    n_char = scale["char"]
    items = []
    for unit in TABLE1_UNITS:
        items.append((f"table1 {unit}",
                      lambda u=unit: characterize_unit(u, n_char, seed=seed)))
    for name in ("lp_tr0", "fp_tr0"):
        items.append((f"table1 {name}",
                      lambda n=name: characterize_multiplier_config(
                          n, n_char, seed=seed)))

    def ppa(make_unit):
        with telemetry.span("hardware.ppa"):
            return make_unit().metrics()

    def design_point(bits, make_unit, config):
        dtype = np.float32 if bits == 32 else np.float64
        return ppa(make_unit), characterize_multiplier_config(
            config, n_char, seed=seed, dtype=dtype)

    for bits, paths in FIG14.items():
        items.append((f"fig14 dw{bits}",
                      lambda b=bits: ppa(lambda: dw_fp_multiplier(b))))
        for path in ("log", "full"):
            for tr in paths[path]:
                cfg = MultiplierConfig(path, tr)
                items.append((f"fig14 {bits} {cfg.name}",
                              lambda b=bits, c=cfg:
                              design_point(b, lambda: mitchell_fp_multiplier(b, c), c)))
        for tr in paths["bt"]:
            items.append((f"fig14 {bits} bt_{tr}",
                          lambda b=bits, t=tr: design_point(
                              b, lambda: bt_fp_multiplier(b, t), f"bt_{t}")))

    def cosim(unit, bits, kwargs):
        kwargs = dict(kwargs)
        if "path" in kwargs:
            kwargs = {"config": MultiplierConfig(kwargs.pop("path"), 0)}
        with telemetry.span("hdl.cosim"):
            # Fixed operand seed: co-simulation vectors do not follow --seed.
            return hdl.cosimulate(unit, bits, n_random=scale["cosim"], seed=0,
                                  **kwargs)

    for bits in (32, 64):
        for unit, kwargs in COSIM_UNITS:
            items.append((f"cosim {unit} {bits} {kwargs}",
                          lambda u=unit, b=bits, k=kwargs: cosim(u, b, k)))

    for app, (metric, _, run_app, configs) in gpu_apps(scale).items():
        framework = PowerQualityFramework(run_app=run_app,
                                          quality_metric=_metric(metric))
        for name, config in configs.items():
            items.append((f"evaluate {app} {name}",
                          lambda f=framework, c=config: f.evaluate(c)))

    modules = {"art": art, "gromacs": gromacs, "sphinx": sphinx}
    for app, names in CPU_CONFIGS.items():
        for name in names:
            def cpu(module=modules[app], name=name):
                with telemetry.span("apps.cpu"):
                    if name is None:
                        return module.reference_run()
                    return module.run(_mul_config(name))
            items.append((f"cpu {app} {name or 'precise'}", cpu))
    return items


def one_pass(scale: dict, seed: int, pace) -> dict:
    """Run every item once; ``times`` holds each item's ``(start, end)`` by
    label.  A calibration sample precedes every item and ends the pass.

    The known co-simulation failure counts in ``failed``.
    """
    results, times, failed, vectors, failed_units = {}, {}, 0, 0, []
    for label, thunk in suite_items(scale, seed):
        pace.sample()
        start = time.perf_counter()
        result = thunk()
        times[label] = (start, time.perf_counter())
        results[label] = result
        if label.startswith("cosim"):
            vectors += result.vectors
            if not result.passed:
                failed += 1
                failed_units.append(result.unit)
    pace.sample()
    return {"times": times, "failed": failed, "vectors": vectors,
            "failed_units": failed_units, "results": results}


def cold_pass(seed: int, tiny: bool) -> dict:
    """One pass in this (fresh) process, without the item results but with
    its calibration samples."""
    pace = Pace()
    doc = one_pass(_scale(tiny), seed, pace)
    del doc["results"]
    doc["pace"] = pace.samples()
    return doc


def run(bench) -> dict:
    setup = probe_setup(bench) if bench.setup else []
    scale = _scale(bench.tiny)
    started = time.perf_counter()
    window_start = time.time()
    colds = [one_pass(scale, bench.seed, bench.pace)]
    warms, cycle_start = [], started
    while True:
        warms.append(one_pass(scale, bench.seed, bench.pace))
        now = time.perf_counter()
        cycle_s, cycle_start = now - cycle_start, now
        # A cycle (cold and warm pass) takes about 12 s: stop where the
        # run's length comes closest to --seconds.
        if now - started + cycle_s / 2 >= bench.seconds:
            break
        if not bench.traced:  # a traced run records this process only
            colds.append(cold_child(bench))
            bench.pace.extend(colds[-1]["pace"])
    window = (window_start, time.time())
    peak = self_peak_rss_mb()
    bench.end_timing()
    passes = colds + warms

    checker = Checker()
    failed_units = {u for p in passes for u in p["failed_units"]}
    checker.check(failed_units <= {KNOWN_COSIM_FAILURE},
                  f"unexpected co-simulation failures: {sorted(failed_units)}")
    results = warms[-1]["results"]
    _check_table1(checker, results)
    _check_cpu_shapes(checker, results)
    _check_operands(checker, np.random.default_rng(bench.seed), scale)
    _check_frameworks(checker, scale, random.Random(bench.seed), results)

    labels = list(colds[0]["times"])
    timings = Timings(
        setup=setup, cold={k: [c["times"][k] for c in colds] for k in labels},
        warm={k: [w["times"][k] for w in warms] for k in labels},
        configs={k: 1 for k in labels}, peak_rss_mb=peak, pace=bench.pace)
    return {"timings": timings, "attempted": len(labels) * len(passes),
            "failed": sum(p["failed"] for p in passes), "checker": checker,
            "window": window,
            "layers": {"hdl.vectors": sum(p["vectors"] for p in passes)}}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_table1(checker, results) -> None:
    for name, bound in TABLE1_BOUNDS.items():
        eps = results[f"table1 {name}"].stats.eps_max
        checker.check(eps <= bound, f"table1 {name}: eps_max {eps} > {bound}")


def _check_cpu_shapes(checker, results) -> None:
    from repro.quality import error_percent, word_accuracy

    art_ref = results["cpu art precise"].output
    art_cfg = results["cpu art fp_tr44"].output
    checker.check(art_cfg[2] > 0.8,
                  f"art vigilance {art_cfg[2]} <= 0.8 under fp_tr44")
    checker.check(art_ref[2] > 0.8, f"art precise vigilance {art_ref[2]} <= 0.8")
    gro_ref = results["cpu gromacs precise"].output[0]
    err = error_percent(results["cpu gromacs fp_tr0"].output[0], gro_ref)
    checker.check(err < 1.25, f"gromacs fp-path energy error {err}% >= 1.25%")
    ref = results["cpu sphinx precise"]
    truth = ref.extras["truth"]
    correct, n = word_accuracy(ref.output, truth)
    checker.check(correct == n, f"sphinx precise {correct}/{n}")
    correct, n = word_accuracy(results["cpu sphinx fp_tr0"].output, truth)
    checker.check(correct >= n - 1, f"sphinx fp path {correct}/{n} < {n - 1}")
    digest = load_digest()
    for label, result in results.items():
        if label.startswith("cpu "):
            _, app, name = label.split()
            check_digest(checker, digest, app, {},
                         None if name == "precise" else _mul_config(name),
                         result.counters)


def _check_operands(checker, rng, scale) -> None:
    """Unit properties on seeded operands, against plain float64 NumPy."""
    from repro.core import (MultiplierConfig, configurable_multiply,
                            imprecise_add, imprecise_multiply)

    n = scale["char"]
    mag = lambda: rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-30, 30, n)  # noqa: E731
    sign = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)  # noqa: E731
    a = (mag() * sign()).astype(np.float32)
    b = (mag() * sign()).astype(np.float32)
    exact = a.astype(np.float64) * b.astype(np.float64)
    approx = imprecise_multiply(a, b).astype(np.float64)
    checker.check(bool(np.all(np.abs(approx) <= np.abs(exact))),
                  "Table-1 multiplier overestimates a magnitude")
    for name in ("lp_tr0", "fp_tr0", "lp_tr19", "fp_tr15"):
        config = MultiplierConfig.from_name(name)
        approx = configurable_multiply(a, b, config).astype(np.float64)
        checker.check(bool(np.all(np.abs(approx) <= np.abs(exact))),
                      f"Mitchell {name} overestimates a magnitude")
    power = (2.0 ** rng.integers(-30, 30, n) * sign()).astype(np.float32)
    for name in ("lp_tr0", "fp_tr0"):
        approx = configurable_multiply(power, b, MultiplierConfig.from_name(name))
        checker.check(bool(np.array_equal(approx.astype(np.float64),
                                          power.astype(np.float64) * b)),
                      f"Mitchell {name} inexact with a power-of-two operand")
    gap = np.abs(np.frexp(a)[1] - np.frexp(b)[1])
    larger = np.where(np.abs(a) >= np.abs(b), a, b)
    for threshold in (4, 8, 12):
        far = gap > threshold
        out = imprecise_add(a, b, threshold=threshold)
        checker.check(bool(far.any()) and bool(np.array_equal(out[far], larger[far])),
                      f"threshold adder TH={threshold} does not return the "
                      "larger operand past the threshold")


def _check_frameworks(checker, scale, rng, results) -> None:
    """Precise/unissued-unit properties and the simulated-stats digest."""
    from repro.framework import PowerQualityFramework

    digest = load_digest()
    for app, (metric, params, run_app, configs) in gpu_apps(scale).items():
        recorder = Recorder(run_app)
        framework = PowerQualityFramework(run_app=recorder,
                                          quality_metric=_metric(metric))
        check_precise_and_unused(checker, app, metric, framework)
        name = rng.choice(sorted(configs))
        fresh = framework.evaluate(configs[name])
        suite = results[f"evaluate {app} {name}"]
        checker.check(fresh.quality == suite.quality
                      and fresh.savings == suite.savings,
                      f"{app} {name}: repeated evaluation differs")
        for config in (None, configs[name]):
            check_digest(checker, digest, app, params, config,
                         recorder.counters(config))
