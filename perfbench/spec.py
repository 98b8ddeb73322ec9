"""Metric names, units and directions; ``BENCHMARK.json`` mirrors this table
(``perfbench/tests/test_spec.py`` keeps the two in step)."""

from __future__ import annotations

#: End-to-end metrics: (name, unit, better, bound).  Timing bounds sit at
#: the largest allowed share: on a shared 2-CPU host, identical work runs
#: up to 1.5x slower for stretches of 10-20 s at a time.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("first_request_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("grape_iters_per_req", "count", "lower", 0.15),
    ("pulse_speedup_x", "ratio", "higher", 0.05),
    ("ok_frac", "frac", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

_MS, _RATIO, _COUNT = "ms", "ratio", "count"

#: Per-layer metrics from the traced run: (name, unit, better).
PER_LAYER = (
    ("server.encode_ms", _MS, "lower"),
    ("server.decode_ms", _MS, "lower"),
    ("server.overhead_ms", _MS, "lower"),
    ("server.response_kb", "KB", "lower"),
    ("service.admission_wait_ms", _MS, "lower"),
    ("service.backpressure_waits", _COUNT, "lower"),
    ("pipeline.bind_ms", _MS, "lower"),
    ("pipeline.blocking_ms", _MS, "lower"),
    ("pipeline.plan_hit_ratio", _RATIO, "higher"),
    ("pipeline.scheduler_ms", _MS, "lower"),
    ("pipeline.dedup_hit_ratio", _RATIO, "higher"),
    ("pipeline.singleflight_wait_ms", _MS, "lower"),
    ("pipeline.assemble_ms", _MS, "lower"),
    ("core.precompile_ms", _MS, "lower"),
    ("core.tune_ms", _MS, "lower"),
    ("core.tune_calls", _COUNT, "lower"),
    ("library.get_ms", _MS, "lower"),
    ("library.put_ms", _MS, "lower"),
    ("library.hit_ratio", _RATIO, "higher"),
    ("library.neighbor_ms", _MS, "lower"),
    ("library.seed_accept_ratio", _RATIO, "higher"),
    ("grape.optimize_ms", _MS, "lower"),
    ("grape.iterations", _COUNT, "lower"),
    ("grape.cost_grad_calls", _COUNT, "lower"),
    ("grape.cost_grad_us_per_call", "us", "lower"),
    ("grape.time_search_probes", _COUNT, "lower"),
    ("grape.probe_converged_ratio", _RATIO, "higher"),
    ("grape.batch_blocks_mean", _COUNT, "higher"),
    ("fleet.jobs", _COUNT, "lower"),
    ("fleet.dispatch_ms", _MS, "lower"),
    ("fleet.worker_busy_ms", _MS, "lower"),
    ("fleet.parallel_efficiency", _RATIO, "higher"),
    ("server.self_ms", _MS, "lower"),
    ("service.self_ms", _MS, "lower"),
    ("pipeline.self_ms", _MS, "lower"),
    ("core.self_ms", _MS, "lower"),
    ("library.self_ms", _MS, "lower"),
    ("grape.self_ms", _MS, "lower"),
    ("fleet.self_ms", _MS, "lower"),
    ("trace.overhead_frac", _RATIO, "lower"),
    ("trace.unattributed_frac", _RATIO, "lower"),
)
