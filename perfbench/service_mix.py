"""Workload ``service-mix``: a ``repro serve`` subprocess with default flags
(journal on, one queue worker) on a fresh cache, driven from this process.

Cold requests are family requests (hotspot ``threshold``; srad, cp and
raytracing ``units``) sent one at a time, each with a seed label not used
before in the run, so every one computes; a cold cycle sends one per app in
a seeded order.  The first cold cycle answers the warm set.  Then bursts of
warm traffic, one closed-loop client re-sending the warm set in a seeded
order, alternate with single cold requests, until the run's time is up and
at least ``MIN_WARM_OPS`` hits are timed.  One
operation is one request; configurations are those the requests name.

One client thread, not two: the server answers hits one at a time, so a
second closed-loop client doubled hit latency without raising throughput
and made the median hit latency vary several times more between runs.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from checks import (PERFECT, Checker, Recorder, check_digest, load_digest,
                    output_sha256, unused_units)
from common import (HERE, MIN_WARM_OPS, Timings, child_env, proc_peak_rss_mb,
                    stop_process)
from tracing import layer_metrics, parse_prometheus, total

WARM_BURST_S = 0.75  # warm traffic between two cold requests
FAMILY_SIZE = {"threshold": 6, "units": 10}

#: (app, metric, params, family) of the cold requests, at the CLI defaults.
REQUESTS = (
    ("hotspot", "mae", {"rows": 48, "cols": 48, "iterations": 20}, "threshold"),
    ("srad", "mae", {"rows": 48, "cols": 48, "iterations": 20}, "units"),
    ("cp", "mae", {"grid": 48}, "units"),
    ("raytracing", "ssim", {"width": 48, "height": 48}, "units"),
)
TINY_REQUESTS = (
    ("hotspot", "mae", {"rows": 12, "cols": 12, "iterations": 3}, "threshold"),
    ("cp", "mae", {"grid": 8}, "units"),
)

_LISTENING = re.compile(r"listening on (http://\S+)")


@dataclass
class Server:
    proc: subprocess.Popen
    log: object
    url: str = ""
    start: float = 0.0  # perf_counter at the spawn
    ready_s: float = 0.0  # from the spawn until /readyz answers ready


def launch(bench, cache_dir, traced: bool = False) -> Server:
    """Spawn a server and wait until ``/readyz`` answers ready."""
    from repro.service import ServiceClient, ServiceError

    args = ["--port", "0", "--cache-dir", str(cache_dir)]
    if traced:
        cmd = [str(HERE / "serve.py"), *args]
        env = child_env(bench.root, REPRO_TELEMETRY="trace",
                        REPRO_TELEMETRY_DIR=str(bench.workdir / "telemetry"))
        env["PYTHONPATH"] += ":" + str(HERE)
    else:
        cmd = ["-m", "repro", "serve", *args]
        env = child_env(bench.root)
    log = open(cache_dir.with_suffix(".log"), "w")
    start = time.perf_counter()
    server = Server(subprocess.Popen([sys.executable, *cmd], cwd=bench.root,
                                     env=env, stdout=subprocess.PIPE,
                                     stderr=log, text=True), log, start=start)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(server.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=60):
                raise RuntimeError("server printed nothing within 60 s")
        match = _LISTENING.search(server.proc.stdout.readline())
        if match is None:
            raise RuntimeError("server did not report its address")
        server.url = match.group(1)
        client = ServiceClient(server.url, timeout=10, retries=0)
        deadline = time.perf_counter() + 60
        while True:
            try:
                if client.readyz().get("ready"):
                    break
            except ServiceError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)
        server.ready_s = time.perf_counter() - start
    except BaseException:
        stop(server)
        raise
    return server


def stop(server: Server) -> None:
    stop_process(server.proc, signal.SIGINT)
    server.log.close()


def request_doc(app, metric, params, family, label) -> bytes:
    return json.dumps({"app": app, "metric": metric, "params": params,
                       "seed": label, "family": family}).encode()


def run(bench) -> dict:
    # Server and client share one CPU: a hit is a closed-loop hand-off
    # between them, and unpinned on this 2-CPU VM the median hit latency
    # of identical runs fell in two modes (about 7 and 12 ms).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(bench.seed)
    servers_dir = bench.workdir / "servers"
    servers_dir.mkdir(parents=True)
    # Set-up: one untimed launch, then the timed ones between calibration
    # samples; the last timed server (fresh cache) carries the workload.
    launches = bench.setup_launches + 1 if bench.setup else 1
    setup, server = [], None
    for i in range(launches):
        if server is not None:
            stop(server)
            server = None
        if bench.setup and i:
            bench.pace.sample(3)
        server = launch(bench, servers_dir / f"cache{i}", traced=bench.traced)
        if bench.setup and i:
            setup.append((server.start, server.start + server.ready_s))
    if bench.setup:
        bench.pace.sample(3)
    try:
        return _drive(bench, server, rng, setup)
    finally:
        stop(server)


def _drive(bench, server, rng, setup) -> dict:
    from repro.service import ServiceClient, ServiceError

    requests = TINY_REQUESTS if bench.tiny else REQUESTS
    client = ServiceClient(server.url, timeout=300, retries=0)
    started = time.perf_counter()
    window_start = time.time()
    answered, cold = [], {}
    attempted = failed = 0
    label = bench.seed * 1000
    pace = bench.pace

    def send_cold(app, metric, params, family) -> float:
        nonlocal label, attempted, failed
        label += 1  # a seed label not used before: the request computes
        body = request_doc(app, metric, params, family, label)
        pace.sample(3)
        start = time.perf_counter()
        status, _, payload = client.request("POST", "/v1/sweep", body)
        cold.setdefault(app, []).append((start, time.perf_counter()))
        pace.sample(3)
        attempted += FAMILY_SIZE[family]
        if status != 200:
            failed += FAMILY_SIZE[family]
        else:
            answered.append(((app, metric, params, family, label), body,
                             json.loads(payload)))

    def cold_cycle():
        """One request per app in a seeded order; yields after each."""
        for request in rng.sample(requests, len(requests)):
            send_cold(*request)
            yield

    # The first cold cycle answers the warm set, one request per app.
    for _ in cold_cycle():
        pass
    warm_set = list(answered)
    sizes = [FAMILY_SIZE[a[0][3]] for a in warm_set]
    warm_rng = random.Random(bench.seed + 1)
    warm = {"ops": {i: [] for i in range(len(warm_set))}, "seen": {},
            "configs": 0, "bad": 0}

    def burst(deadline) -> None:
        """Closed loop: passes over the warm set in a seeded order."""
        while time.perf_counter() < deadline:
            for i in warm_rng.sample(range(len(warm_set)), len(warm_set)):
                warm["configs"] += sizes[i]
                start = time.perf_counter()
                try:
                    status, _, payload = client.request(
                        "POST", "/v1/sweep", warm_set[i][1])
                except ServiceError:
                    status = 0
                warm["ops"][i].append((start, time.perf_counter()))
                if status != 200:
                    warm["bad"] += sizes[i]
                else:
                    warm["seen"].setdefault(i, set()).add(payload)
            pace.sample()

    # Warm bursts alternate with single cold requests until the time is up.
    min_ops = 4 if bench.tiny else MIN_WARM_OPS
    burst_s = WARM_BURST_S / 10 if bench.tiny else WARM_BURST_S
    warm_window_start, cycle = time.time(), None
    while True:
        burst(time.perf_counter() + burst_s)
        if (time.perf_counter() - started >= bench.seconds
                and sum(map(len, warm["ops"].values())) >= min_ops):
            break
        cycle = cycle or cold_cycle()
        if next(cycle, "done") == "done":
            cycle = None
    window = (window_start, time.time())
    peak = proc_peak_rss_mb(server.proc.pid)
    attempted += warm["configs"]
    failed += warm["bad"]

    checker = Checker()
    _check_answers(checker, answered, warm_set, warm["seen"], rng)
    layers = {}
    if bench.traced:
        layers = _server_layers(
            bench, server, client,
            [end - start for v in cold.values() for start, end in v],
            [end - start for v in warm["ops"].values() for start, end in v],
            window, warm_window_start)
    # A warm request and the cold requests for its app are one kind.
    apps = [a[0][0] for a in warm_set]
    timings = Timings(
        setup=setup, cold={app: cold[app] for app in apps},
        warm={app: warm["ops"][i] for i, app in enumerate(apps)},
        configs=dict(zip(apps, sizes)), peak_rss_mb=peak, pace=pace)
    return {"timings": timings, "attempted": attempted, "failed": failed,
            "checker": checker, "window": window, "layers": layers}


def _check_answers(checker, answered, warm_set, seen, rng) -> None:
    """Warm answers equal cold ones; method properties of the answers."""
    from repro.core import IHWConfig
    from repro.framework import PowerQualityFramework
    from repro.runtime import ExperimentSpec

    for i, (request, _, cold) in enumerate(warm_set):
        payloads = seen.get(i, set())
        checker.check(len(payloads) == 1,
                      f"{request}: {len(payloads)} distinct warm answers")
        for payload in payloads:
            warm = json.loads(payload)
            checker.check(warm["results"] == cold["results"],
                          f"{request}: warm answer differs from the cold one")
            checker.check(warm["served"]["misses"] == 0,
                          f"{request}: warm request computed")
    digest = load_digest()
    references = {}
    for (app, metric, params, family, label), _, cold in answered:
        spec = ExperimentSpec.create(app, metric, seed=label, **params)
        if app not in references:
            references[app] = spec.run_app(None)
        reference = references[app]
        results = cold["results"]
        checker.check(all("error" not in r for r in results.values()),
                      f"{app}: failed configurations")
        if "precise" in results:
            precise = results["precise"]
            checker.check(precise["quality"] == PERFECT[metric],
                          f"{app}: precise quality {precise['quality']!r}")
            checker.check(_no_savings(precise["savings"]),
                          f"{app}: precise configuration reports savings")
            for unit in unused_units(reference.counters)[:1]:
                solo = results[unit]
                checker.check(solo["output"] == precise["output"],
                              f"{app}: unissued unit {unit} changed the output")
                checker.check(_no_savings(solo["savings"]),
                              f"{app}: unissued unit {unit} reports savings")
    # One seed-chosen configuration, evaluated in this process.
    (app, metric, params, _, label), _, cold = rng.choice(answered)
    name = rng.choice(sorted(cold["results"]))
    spec = ExperimentSpec.create(app, metric, seed=label, **params)
    config = IHWConfig.from_canonical(cold["results"][name]["config"])
    recorder = Recorder(spec.run_app)
    ev = PowerQualityFramework(run_app=recorder,
                               quality_metric=spec.quality_metric(),
                               spec=spec).evaluate(config)
    served = cold["results"][name]
    checker.check(ev.quality == served["quality"]
                  and _savings_doc(ev.savings) == served["savings"]
                  and output_sha256(ev.output) == served["output"]["sha256"],
                  f"{app} {name}: in-process evaluation differs from the service")
    for config in (None, config):
        check_digest(checker, digest, app, params, config,
                     recorder.counters(config))


def _no_savings(doc) -> bool:
    return doc["system_savings"] == 0.0 and doc["arithmetic_savings"] == 0.0


def _savings_doc(savings) -> dict:
    from dataclasses import asdict

    return json.loads(json.dumps(asdict(savings)))


def _server_layers(bench, server, client, cold_ops, warm_ops, window,
                   warm_window_start) -> dict:
    """Per-layer metrics from the traced server's counters and spans."""
    samples = parse_prometheus(client.metricsz())
    groups = len(client.queuez()["groups"])
    stop(server)
    trace = bench.workdir / "telemetry" / "trace.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    layers = layer_metrics(spans, samples, window)
    execute_s = total(samples, "repro_service_execute_seconds_sum")
    reads_s = sum(s["dur_ms"] for s in spans if s["name"] == "cache.document"
                  and s["start"] >= warm_window_start) / 1000.0
    layers.update({
        "service.startup_ms": 1000.0 * server.ready_s,
        "runtime.signature_groups": groups,
        "service.executions": total(samples, "repro_service_executions_total"),
        "service.coalesced": total(samples, "repro_service_coalesced_total"),
        "service.execute_s": execute_s,
        "service.queue_wait_ms": 1000.0 * (sum(cold_ops) - execute_s)
        / len(cold_ops),
        "service.http_ms": 1000.0 * (statistics.fmean(warm_ops)
                                     - reads_s / len(warm_ops)),
    })
    return layers
