"""One measured run of one workload; ``run.py`` starts it in a fresh,
hermetic interpreter and reads the JSON it prints as its last line.

A run sets the workload up several times (reporting the median set-up
time), sends the first request alone, then runs every client's closed
loop for the given seconds.  Outputs are checked after the timed phase.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from perfbench import check, stats
from perfbench import workloads as W

#: Set-ups per run: at least ``SETUPS``, more while set-up and tear-down
#: together stay under ``SETUP_BUDGET_S`` (up to ``MAX_SETUPS``); the
#: median is reported, so a cheap set-up is sampled often enough to be
#: steady.
SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 2.0
#: Cold first requests per run, each on a fresh venue: up to
#: ``COLD_REPS`` while they stay under ``COLD_BUDGET_S``; median reported.
COLD_REPS = 5
COLD_BUDGET_S = 8.0
#: Results checked per run, spread evenly over the stream (first included).
MAX_CHECKED = 12
#: Requests a nominal loop runs, for amortizing the cold first request.
NOMINAL_LOOP = 100
WORKER_START_TIMEOUT_S = 60.0


@dataclass
class Record:
    client: int
    rid: int
    start: float
    end: float
    request: object
    result: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.start if self.error is None else math.inf


class Venue:
    """The front door a workload's clients talk to: a ``CompilationService``
    in this process, optionally behind a ``CompilationServer``."""

    def __init__(self, workload, workdir: Path, settings, hyper):
        from repro.service import CompilationService

        self.circuit = W.build_circuit(workload)
        self.service = CompilationService(
            W.service_config(workload, workdir),
            settings=settings,
            hyperparameters=hyper,
        )
        self.server = None
        self.clients = [self.service] * workload.clients
        if workload.venue == "http":
            from repro.server import CompilationServer, ServerClient

            self.server = CompilationServer(self.service, port=0).start()
            self.clients = [
                ServerClient(self.server.url) for _ in range(workload.clients)
            ]
        if workload.dispatcher == "queue":
            self._await_workers()

    def _await_workers(self) -> None:
        dispatcher = self.service.executor
        dispatcher._ensure_workers()
        deadline = time.monotonic() + WORKER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            workers = dispatcher.queue.status()["workers"]
            if sum(w.get("state") == "idle" for w in workers) >= W.FLEET_WORKERS:
                return
            time.sleep(0.01)
        raise RuntimeError("fleet workers did not come up")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.service.close()


def _hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live child (workers)."""
    total = _hwm_kb("self")
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            if ppid == me:
                total += _hwm_kb(entry)
        except (OSError, ValueError, IndexError):
            continue
    return total / 1024.0


def blas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({l.split()[-1] for l in maps if "blas" in l.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                return int(func())
    return None


class Loop:
    """Closed-loop clients: each sends its next request after the reply."""

    def __init__(self, venue, workload, seed: int, rids, tracer=None):
        self.venue = venue
        self.workload = workload
        self.tracer = tracer
        center = W.walk_center(workload, len(venue.circuit.parameters))
        self.walks = [
            W.ParameterWalk(center, seed, client)
            for client in range(workload.clients)
        ]
        self._rids = rids

    def send(self, client: int) -> Record:
        from repro.service import CompileRequest

        request = CompileRequest(
            self.venue.circuit,
            self.walks[client].next(),
            strategy=self.workload.strategy,
            max_block_width=self.workload.max_block_width,
        )
        rid = next(self._rids)
        sid = self.tracer.open("client.request", rid) if self.tracer else None
        record = Record(client, rid, time.perf_counter(), 0.0, request)
        try:
            record.result = self.venue.clients[client].compile(request)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            record.error = repr(exc)
        record.end = time.perf_counter()
        if sid is not None:
            self.tracer.close(sid)
        return record

    def run(self, seconds: float) -> tuple:
        """Every client loops until ``seconds`` pass; returns the records
        and the phase's wall time."""
        records: list = []
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(client):
            while time.perf_counter() < deadline:
                records.append(self.send(client))

        threads = [
            threading.Thread(target=client_loop, args=(c,), daemon=True)
            for c in range(self.workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - start


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after.get(key) or {}, before.get(key) or {}
    return float(after or 0) - float(before or 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, rids: set, before: dict, after: dict) -> dict:
    """Per-layer metrics over the timed phase's requests, per request."""
    from perfbench.trace import LAYERS, self_times

    spans = [s for s in tracer.spans if s.rid in rids]
    selfs = self_times(spans)
    n = max(len(rids), 1)
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    count_by = defaultdict(int)
    first_start = defaultdict(dict)
    for span in spans:
        self_by[span.name] += selfs[span.sid]
        total_by[span.name] += span.duration
        count_by[span.name] += 1
        starts = first_start[span.rid]
        starts[span.name] = min(starts.get(span.name, span.start), span.start)
    obs = defaultdict(list)
    for o in tracer.observations:
        if o.rid in rids:
            obs[o.name].append(o.value)

    def per_req_ms(value_s):
        return 1000.0 * value_s / n

    overhead = 0.0
    roundtrips = {s.rid: s.duration for s in spans if s.name == "server.roundtrip"}
    served = defaultdict(float)
    for span in spans:
        if span.name == "service.compile" and span.rid in roundtrips:
            served[span.rid] = max(served[span.rid], span.duration)
    for rid, duration in roundtrips.items():
        overhead += duration - served[rid]
    waits = []
    for starts in first_start.values():
        entry = starts.get("service.submit", starts.get("service.compile"))
        if entry is not None and "service.strategy" in starts:
            waits.append(starts["service.strategy"] - entry)
    reports = obs["pipeline.scheduler_report"]
    probes = [p for batch in obs["grape.probes"] for p in batch]
    optimizes = obs["grape.optimize"]
    busy = sum(obs["fleet.busy_s"])
    dispatch = total_by["fleet.dispatch"]
    roots = [s for s in spans if s.name == "client.request"]
    names = {s.sid: s.name for s in spans}
    neighbor_lookups = sum(
        1 for s in spans
        if s.name == "library.neighbor" and names.get(s.parent) != s.name
    )
    metrics = {
        "server.encode_ms": per_req_ms(self_by["server.encode"]),
        "server.decode_ms": per_req_ms(self_by["server.decode"]),
        "server.overhead_ms": per_req_ms(overhead),
        "server.response_kb": _ratio(
            sum(obs["server.response_bytes"]) / 1024.0,
            len(obs["server.response_bytes"]),
        ),
        "service.admission_wait_ms": 1000.0 * _ratio(sum(waits), len(waits)),
        "service.backpressure_waits": _delta(
            after, before, "requests", "backpressure_waits"),
        "pipeline.bind_ms": per_req_ms(self_by["pipeline.bind"]),
        "pipeline.blocking_ms": per_req_ms(self_by["pipeline.blocking"]),
        "pipeline.plan_hit_ratio": _ratio(
            _delta(after, before, "plan_cache", "plan_hits"),
            _delta(after, before, "plan_cache", "plan_hits")
            + _delta(after, before, "plan_cache", "plan_misses"),
        ),
        "pipeline.scheduler_ms": per_req_ms(self_by["pipeline.scheduler"]),
        "pipeline.dedup_hit_ratio": _ratio(
            sum(r["deduped_blocks"] + r["reused_blocks"] for r in reports),
            sum(r["total_blocks"] for r in reports),
        ),
        "pipeline.singleflight_wait_ms": per_req_ms(
            total_by["pipeline.singleflight_wait"]),
        "pipeline.assemble_ms": per_req_ms(self_by["pipeline.assemble"]),
        "core.precompile_ms": per_req_ms(self_by["core.precompile"]),
        "core.tune_ms": per_req_ms(total_by["core.tune"]),
        "core.tune_calls": count_by["core.tune"] / n,
        "library.get_ms": per_req_ms(self_by["library.get"]),
        "library.put_ms": per_req_ms(self_by["library.put"]),
        "library.hit_ratio": _ratio(
            _delta(after, before, "cache", "hits"),
            _delta(after, before, "cache", "hits")
            + _delta(after, before, "cache", "misses"),
        ),
        "library.neighbor_ms": per_req_ms(self_by["library.neighbor"]),
        "library.seed_accept_ratio": _ratio(
            sum(obs["grape.seeded"]), neighbor_lookups),
        "grape.optimize_ms": per_req_ms(self_by["grape.optimize"]),
        "grape.iterations": sum(it for _, it in optimizes) / n,
        "grape.cost_grad_calls": count_by["grape.cost_grad"] / n,
        "grape.cost_grad_us_per_call": 1e6 * _ratio(
            total_by["grape.cost_grad"], count_by["grape.cost_grad"]),
        "grape.time_search_probes": len(probes) / n,
        "grape.probe_converged_ratio": _ratio(
            sum(1 for p in probes if p[2]), len(probes)),
        "grape.batch_blocks_mean": _ratio(
            sum(blocks for blocks, _ in optimizes), len(optimizes)),
        "fleet.jobs": sum(obs["fleet.jobs"]) / n,
        "fleet.dispatch_ms": per_req_ms(dispatch),
        "fleet.worker_busy_ms": per_req_ms(busy),
        "fleet.parallel_efficiency": _ratio(busy, W.FLEET_WORKERS * dispatch),
        # The share of request wall time no layer span covers.  Without
        # parallel work this is 1 minus the layers' self times over wall.
        "trace.unattributed_frac": _ratio(
            sum(selfs[s.sid] for s in roots), sum(s.duration for s in roots)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_req_ms(
            sum(selfs[s.sid] for s in spans if s.layer == layer))
    return metrics


def sample_indices(count: int, limit: int) -> list:
    """``limit`` indices spread evenly over ``range(count)``, 0 included."""
    if count <= limit:
        return list(range(count))
    return sorted({round(i * (count - 1) / (limit - 1)) for i in range(limit)})


def input_properties(records: list, checked_tasks: list) -> dict:
    sent = [r.request for r in records]
    fingerprints = {}
    for request in sent:
        key = id(request.circuit)
        if key not in fingerprints:
            fingerprints[key] = request.circuit.content_fingerprint()
    first = fingerprints[id(sent[0].circuit)]
    bindings = [tuple(r.values) for r in sent]
    dims = sorted({
        2 ** len(task.device_qubits)
        for tasks in checked_tasks
        for task in tasks
        if task.subcircuit is not None
    })
    return {
        "requests": len(sent),
        "repeated_ansatz_share": sum(
            fingerprints[id(r.circuit)] == first for r in sent) / len(sent),
        "repeated_binding_share": 1.0 - len(set(bindings)) / len(bindings),
        "blocks_per_request": statistics.median([len(t) for t in checked_tasks])
        if checked_tasks else 0,
        "block_dims": dims,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setups", type=int, default=SETUPS)
    parser.add_argument("--corrupt", choices=("scale", "lengthen"))
    args = parser.parse_args(argv)

    import numpy
    import scipy

    from repro.service import CompilationService, ServiceConfig

    workload = W.ALL_WORKLOADS[args.workload]
    settings, hyper = W.grape_settings()
    tracer = None
    if args.trace:
        from perfbench import trace

        tracer = trace.install(trace.Tracer())
        if workload.dispatcher == "queue":
            # Fleet workers trace themselves (see perfbench/workerhook).
            span_dir = args.workdir / "worker-spans"
            span_dir.mkdir(parents=True)
            os.environ[trace.WORKER_TRACE_ENV] = str(span_dir)
            os.environ["PYTHONPATH"] = os.pathsep.join(
                (str(trace.WORKER_HOOK_DIR), os.environ.get("PYTHONPATH", "")))

    phases = {"start": time.perf_counter()}
    setup_times = []
    venue = None
    for attempt in range(MAX_SETUPS):
        if attempt >= args.setups and (
            args.setups == 1
            or time.perf_counter() - phases["start"] > SETUP_BUDGET_S
        ):
            break
        if venue is not None:
            venue.close()
        start = time.perf_counter()
        venue = Venue(workload, args.workdir / f"setup{attempt}", settings, hyper)
        setup_times.append(time.perf_counter() - start)

    # The cold first request, repeated on fresh venues for a steadier
    # median; the last venue goes on to run the loop.
    rids = itertools.count(1)
    cold = []
    cold_reps = 1 if args.setups == 1 else COLD_REPS
    while True:
        loop = Loop(venue, workload, args.seed, rids, tracer)
        cold.append(loop.send(0))
        if len(cold) >= cold_reps or sum(
            r.latency for r in cold
        ) >= COLD_BUDGET_S:
            break
        venue.close()
        venue = Venue(
            workload, args.workdir / f"cold{len(cold)}", settings, hyper)
    first = cold[-1]
    phases["cold"] = time.perf_counter()
    before = venue.service.stats()
    records, phase_wall = loop.run(args.seconds)
    phases["loop"] = time.perf_counter()
    after = venue.service.stats()
    rss_mb = peak_rss_mb()
    config = venue.service.config.as_dict()
    venue.close()
    phases["close"] = time.perf_counter()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        if workload.dispatcher == "queue":
            trace.merge_worker_spans(tracer, span_dir)
        layers = layer_metrics(tracer, {r.rid for r in records}, before, after)

    # Output check, outside the timed path.
    stream = cold + sorted(records, key=lambda r: r.start)
    ok = [r for r in stream if r.error is None]
    checked = [ok[i] for i in sample_indices(len(ok), MAX_CHECKED)]
    problems = []
    speedups = []
    checked_tasks = []
    checker = check.Checker(settings.target_fidelity)
    with CompilationService(ServiceConfig()) as gate_service:
        for record in checked:
            result = record.result
            if args.corrupt:
                result = check.corrupt(result, args.corrupt)
            gate_ns = check.gate_duration(gate_service, record.request)
            found = checker.check(result, gate_ns)
            problems += [f"request {record.rid}: {p}" for p in found]
            speedups.append(gate_ns / result.pulse_duration_ns)
            checked_tasks.append(checker.tasks(record.request))
    phases["check"] = time.perf_counter()
    wrong = {p.split(":", 1)[0] for p in problems}
    failed = sum(r.error is not None for r in stream) + len(wrong)

    later = [r.latency for r in records]
    if first.error is None:
        first_iters = first.result.runtime_iterations + (
            first.result.precompile_report.grape_iterations
            if first.result.precompile_report is not None else 0)
    else:
        first_iters = 0
    later_iters = [r.result.runtime_iterations for r in records if r.error is None]
    tail_value, tail_pct = stats.tail(later) if later else (math.inf, 0.0)
    mean_later = sum(later_iters) / len(later_iters) if later_iters else 0.0
    e2e = {
        "setup_s": statistics.median(setup_times),
        "first_request_s": statistics.median([r.latency for r in cold]),
        "latency_p50_ms": 1000.0 * statistics.median(later) if later else math.inf,
        "latency_tail_ms": 1000.0 * tail_value,
        "throughput_rps": sum(r.error is None for r in records) / phase_wall,
        "grape_iters_per_req": (
            first_iters + (NOMINAL_LOOP - 1) * mean_later) / NOMINAL_LOOP,
        "pulse_speedup_x": stats.geomean(speedups) if speedups else 0.0,
        "ok_frac": 1.0 - failed / len(stream),
        "peak_rss_mb": rss_mb,
    }
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(stream),
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems[:20],
        "errors": [r.error for r in stream if r.error][:5],
        "e2e": e2e,
        "layers": layers,
        "tail_percentile": tail_pct,
        "later_requests": len(later),
        "later_latencies_s": [r.latency for r in records],
        "later_clients": [r.client for r in records],
        "setup_times_s": setup_times,
        "first_grape_iters": first_iters,
        "cold_latencies_s": [r.latency for r in cold],
        "phase_s": {
            name: phases[name] - phases[previous]
            for previous, name in zip(phases, list(phases)[1:])
        },
        "checked": len(checked),
        "inputs": input_properties([first] + records, checked_tasks),
        "env": {
            "config": config,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
