"""Layer wrappers and the per-layer metrics of a traced run.

The program already records spans (``sweep``, ``experiment``, ``kernel``,
``cache.get``/``cache.put``, ``characterize``, ``service.request``,
``service.execute``) and counters (``repro_backend_op_*``,
``repro_kernel_runs_total``, ``repro_service_*``) when
``REPRO_TELEMETRY=trace``.  :func:`install_wrappers` adds spans, from this
directory, around the layer calls the program does not time itself: the
power model, the savings estimate, the quality metric and the service's
cache reads.  The paper suite opens its own spans around the calls it makes
(``hardware.ppa``, ``hdl.cosim``, ``apps.cpu``).
"""

from __future__ import annotations

import functools
import re
import statistics

#: Spans that cover one layer's own work.  Time outside all of them is
#: "unattributed": container self time (sweep and experiment bookkeeping,
#: the HTTP server, the queue) and the benchmark's own loop.
LEAF_SPANS = ("kernel", "cache.get", "cache.put", "cache.document",
              "gpu.breakdown", "gpu.savings", "quality.metric",
              "characterize", "hardware.ppa", "hdl.cosim", "apps.cpu")

OPS = ("add", "sub", "mul", "fma", "div", "rcp", "rsqrt", "sqrt", "log2")

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("import.numpy_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("import.repro_ms", "ms"),
    ("service.startup_ms", "ms"),
    ("framework.reference_s", "s"),
    ("framework.candidate_s", "s"),
    ("apps.kernel_runs", "runs"),
    ("apps.cpu_s", "s"),
    ("core.op_calls", "count"),
    ("core.elements_per_call", "elements"),
    ("core.us_per_call", "us"),
    *((f"core.op_s.{op}", "s") for op in OPS),
    ("gpu.breakdown_s", "s"),
    ("gpu.savings_s", "s"),
    ("quality.metric_s", "s"),
    ("runtime.cache_get_ms", "ms"),
    ("runtime.cache_put_ms", "ms"),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"),
    ("runtime.signature_groups", "count"),
    ("runtime.sweep_overhead_ms", "ms"),
    ("service.executions", "count"),
    ("service.coalesced", "count"),
    ("service.execute_s", "s"),
    ("service.queue_wait_ms", "ms"),
    ("service.http_ms", "ms"),
    ("erroranalysis.characterize_s", "s"),
    ("hardware.ppa_s", "s"),
    ("hdl.cosim_s", "s"),
    ("hdl.vectors", "count"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.unattributed_share", "ratio"),
)


def _spanned(name, fn):
    from repro import telemetry

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with telemetry.span(name):
            return fn(*args, **kwargs)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def install_wrappers() -> None:
    """Wrap the untimed layer entry points in spans (idempotent)."""
    import repro.framework.tradeoff as tradeoff
    import repro.quality as quality
    from repro.gpu import GPUPowerModel
    from repro.runtime import ResultCache

    targets = (
        (GPUPowerModel, "breakdown", "gpu.breakdown"),
        (tradeoff, "estimate_system_savings", "gpu.savings"),
        (quality, "mae", "quality.metric"),
        (quality, "ssim", "quality.metric"),
        (ResultCache, "document", "cache.document"),
    )
    for owner, attr, span_name in targets:
        current = getattr(owner, attr)
        if not getattr(current, "__perfbench_wrapped__", False):
            setattr(owner, attr, _spanned(span_name, current))


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list:
    """``[(name, {label: value}, float)]`` from Prometheus exposition text."""
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is None or line.startswith("#"):
            continue
        labels = dict(_LABEL.findall(match.group(3) or ""))
        samples.append((match.group(1), labels, float(match.group(4))))
    return samples


def total(samples, name: str, **labels) -> float:
    return sum(value for n, lab, value in samples
               if n == name and all(lab.get(k) == v for k, v in labels.items()))


def _sum_s(spans, name, **attrs) -> float:
    return sum(s["dur_ms"] for s in spans if s["name"] == name and all(
        s["attrs"].get(k) == v for k, v in attrs.items())) / 1000.0


def _mean_ms(spans, names) -> float:
    durations = [s["dur_ms"] for s in spans if s["name"] in names]
    return statistics.fmean(durations) if durations else 0.0


def sweep_overhead_ms(spans) -> float:
    """Mean ``sweep`` span time outside its evaluations and cache calls."""
    children: dict = {}
    for s in spans:
        if s["name"] in ("experiment", "cache.get", "cache.put"):
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["dur_ms"]
    sweeps = [s for s in spans if s["name"] == "sweep"]
    if not sweeps:
        return 0.0
    return statistics.fmean(s["dur_ms"] - children.get(s["id"], 0.0)
                            for s in sweeps)


def covered_seconds(spans, start: float, end: float) -> float:
    """Wall time in ``[start, end]`` inside at least one leaf span."""
    intervals = sorted((max(s["start"], start), min(s["end"], end))
                       for s in spans if s["name"] in LEAF_SPANS)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(spans, samples, window) -> dict:
    """Per-layer metrics from one traced run's spans and counters.

    ``window`` is the ``(start, end)`` wall-clock interval (``time.time``)
    the workload measured; the unattributed share is taken over it.
    """
    calls = total(samples, "repro_backend_op_calls_total")
    elements = total(samples, "repro_backend_op_elements_total")
    op_seconds = total(samples, "repro_backend_op_seconds_total")
    start, end = window
    doc = {
        "framework.reference_s": _sum_s(spans, "kernel", role="reference"),
        "framework.candidate_s": _sum_s(spans, "kernel", role="candidate"),
        "apps.kernel_runs": total(samples, "repro_kernel_runs_total"),
        "apps.cpu_s": _sum_s(spans, "apps.cpu"),
        "core.op_calls": calls,
        "core.elements_per_call": elements / calls if calls else 0.0,
        "core.us_per_call": 1e6 * op_seconds / calls if calls else 0.0,
        "gpu.breakdown_s": _sum_s(spans, "gpu.breakdown"),
        "gpu.savings_s": _sum_s(spans, "gpu.savings"),
        "quality.metric_s": _sum_s(spans, "quality.metric"),
        "runtime.cache_get_ms": _mean_ms(spans, ("cache.get", "cache.document")),
        "runtime.cache_put_ms": _mean_ms(spans, ("cache.put",)),
        "runtime.cache_hits": total(samples, "repro_cache_requests_total",
                                    outcome="hit"),
        "runtime.cache_misses": total(samples, "repro_cache_requests_total",
                                      outcome="miss"),
        "runtime.sweep_overhead_ms": sweep_overhead_ms(spans),
        "erroranalysis.characterize_s": _sum_s(spans, "characterize"),
        "hardware.ppa_s": _sum_s(spans, "hardware.ppa"),
        "hdl.cosim_s": _sum_s(spans, "hdl.cosim"),
        "telemetry.unattributed_share":
            1.0 - covered_seconds(spans, start, end) / (end - start),
    }
    for op in OPS:
        doc[f"core.op_s.{op}"] = total(samples, "repro_backend_op_seconds_total",
                                       op=op)
    return doc


def per_layer_output(values: dict) -> dict:
    """Every per-layer metric with its unit; layers a workload skips read 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
