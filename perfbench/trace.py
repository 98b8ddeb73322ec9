"""Span tracer installed from the benchmark around each layer's entry points.

The program's source stays untouched: :func:`install` replaces the public
entry points of every layer with timing wrappers.  Functions are patched
in *every* ``repro`` module that holds them, because several modules
import names directly; methods are patched on their class.

A span records its name, parent span, request id and start/end times.
Spans of one request share the request id even when they run on other
threads: the client hands its context to the HTTP handler thread through
the request's wire payload, and ``CompilationService.submit`` hands it to
the worker thread that runs ``compile``.  Fleet workers are separate
processes: a traced run starts them with ``perfbench/workerhook`` on their
``PYTHONPATH``, so each installs its own tracer, keys its spans by job id
and writes them to a file when it exits; :func:`merge_worker_spans` hangs
them under the dispatch span that enqueued the job (``perf_counter`` is
the system-wide monotonic clock, so the intervals line up).  Spans stay in
memory; the benchmark reduces them to per-layer metrics at the end of a
run.
"""


from __future__ import annotations

import atexit
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable naming the directory fleet workers write spans to.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"
WORKER_HOOK_DIR = Path(__file__).resolve().parent / "workerhook"

#: Layers, named after the ``repro`` subpackages they wrap.
LAYERS = ("server", "service", "pipeline", "core", "library", "grape", "fleet")


@dataclass
class Span:
    sid: int
    parent: int | None
    rid: int | None
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Observation:
    rid: int | None
    name: str
    value: object


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    observations: list = field(default_factory=list)
    links: dict = field(default_factory=dict)

    def __post_init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- context -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple:
        """``(rid, parent sid)`` for a span opened now on this thread."""
        stack = self._stack()
        if stack:
            sid, rid = stack[-1]
            return rid, sid
        return getattr(self._local, "base", (None, None))

    def adopt(self, ctx) -> tuple:
        """Make ``ctx`` this thread's base context; returns the previous."""
        previous = getattr(self._local, "base", (None, None))
        self._local.base = ctx
        return previous

    def observe(self, name: str, value) -> None:
        self.observations.append(Observation(self.context()[0], name, value))

    def open(self, name: str, rid: int | None = None) -> int:
        """Open a span by hand (the client's per-request root span)."""
        parent = self.context()[1]
        if rid is None:
            rid = self.context()[0]
        sid = next(self._ids)
        self._stack().append((sid, rid))
        self._local.opened = getattr(self._local, "opened", {})
        self._local.opened[sid] = (name, parent, rid, time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.remove(next(entry for entry in stack if entry[0] == sid))
        name, parent, rid, start = self._local.opened.pop(sid)
        self.spans.append(Span(sid, parent, rid, name, start, end))

    # -- wrapping ------------------------------------------------------------
    def wrap(self, func, name: str, adopt=None, persist=False, before=None,
             after=None):
        """A timing wrapper around ``func``.

        ``adopt(args, kwargs)`` returns a key into :attr:`links` whose
        context the call runs under (kept for the rest of the thread when
        ``persist``); ``before(tracer, args, kwargs)`` runs just before the
        span opens and ``after(tracer, args, kwargs, result)`` just after
        it closes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            previous = None
            if adopt is not None:
                ctx = tracer.links.get(adopt(args, kwargs))
                if ctx is not None and not tracer._stack():
                    previous = tracer.adopt(ctx)
                    if persist:
                        previous = None
            if before is not None:
                before(tracer, args, kwargs)
            rid, parent = tracer.context()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, rid, name, start, end))
                if previous is not None:
                    tracer.adopt(previous)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(func, attr, None))
        return wrapper

    def patch_function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module holds it."""
        __import__(module)
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` (a plain or static method) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, **hooks))
        else:
            wrapped = self.wrap(raw, name, **hooks)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- self time ----------------------------------------------------------------
def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.duration - covered
    return result


# -- the entry points ---------------------------------------------------------
def _values_token(values) -> tuple | None:
    return None if values is None else tuple(values)


def _link_payload(tracer, args, kwargs, payload) -> None:
    # Client side: the wire payload carries the request to the handler
    # thread, so its values key the hand-off to the server-side spans.
    tracer.links[("wire", _values_token(payload.get("values")))] = tracer.context()


def _payload_key(args, kwargs):
    payload = args[0] if args else kwargs.get("data")
    if not isinstance(payload, dict):
        return None
    return ("wire", _values_token(payload.get("values")))


def _link_submit(tracer, args, kwargs) -> None:
    # Runs before the submit span opens, so the worker thread's
    # ``compile`` becomes a child of the submitter's own parent span.
    request = args[1] if len(args) > 1 else kwargs["request"]
    tracer.links[("request", id(request))] = tracer.context()


def _request_key(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return ("request", id(request))


def _link_job(tracer, args, kwargs, job_id) -> None:
    # The worker that runs this job reports its spans under the job id.
    tracer.links[("job", job_id)] = tracer.context()


def _observe_search(tracer, args, kwargs, result) -> None:
    tracer.observe("grape.probes", list(result.probes))
    if kwargs.get("warm_start") is not None:
        # A warm-started search that converges is an accepted seed.
        tracer.observe("grape.seeded", bool(result.converged))


def _observe(name, value_of):
    def after(tracer, args, kwargs, result):
        tracer.observe(name, value_of(args, kwargs, result))

    return after


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    import repro.core.cache as cache
    import repro.core.flexible as flexible
    import repro.core.strict as strict
    import repro.fleet.dispatcher as dispatcher
    import repro.fleet.queue as queue
    import repro.library.neighbors as neighbors
    import repro.pipeline.pipeline as pipeline
    import repro.pipeline.plan as plan
    import repro.pipeline.scheduler as scheduler
    import repro.pipeline.stages as stages
    import repro.pulse.grape.batched as batched
    import repro.pulse.grape.cost as cost
    import repro.server.client as client
    import repro.service.facade as facade
    import repro.service.strategies as strategies
    from repro.core.compiler import BlockPulseCompiler

    # server: wire codecs on both ends, the HTTP round trip, response size.
    tracer.patch_method(client.ServerClient, "compile", "server.roundtrip")
    tracer.patch_method(
        client.ServerClient, "_parse", "server.decode",
        after=_observe("server.response_bytes", lambda a, k, r: len(a[0])),
    )
    tracer.patch_function("repro.server.client", "encode_request",
                          "server.encode", after=_link_payload)
    tracer.patch_function("repro.server.client", "decode_result", "server.decode")
    tracer.patch_function("repro.server.http", "decode_request", "server.decode",
                          adopt=_payload_key, persist=True)
    tracer.patch_function("repro.server.http", "encode_result", "server.encode")

    # service: admission and strategy dispatch.
    tracer.patch_method(facade.CompilationService, "submit", "service.submit",
                        before=_link_submit)
    tracer.patch_method(facade.CompilationService, "compile", "service.compile",
                        adopt=_request_key)
    tracer.patch_method(strategies._StrategyBase, "compile", "service.strategy")

    # pipeline: bind, blocking (or plan replay), scheduler, assembly.
    tracer.patch_method(pipeline.CompilationPipeline, "run_many", "pipeline.run")
    tracer.patch_method(stages.BindStage, "run", "pipeline.bind")
    tracer.patch_method(stages.BlockingStage, "run", "pipeline.blocking")
    tracer.patch_function("repro.pipeline.plan", "plan_key", "pipeline.blocking")
    tracer.patch_method(plan.CompilationPlan, "apply", "pipeline.blocking")
    tracer.patch_method(plan.PlanCache, "lookup", "pipeline.plan_lookup")
    tracer.patch_method(
        scheduler.BlockScheduler, "run", "pipeline.scheduler",
        after=_observe("pipeline.scheduler_report", lambda a, k, r: r.as_dict()),
    )
    tracer.patch_method(scheduler.SchedulerState, "wait_for",
                        "pipeline.singleflight_wait")
    tracer.patch_method(stages.PulseStage, "run", "pipeline.pulse")
    tracer.patch_method(stages.AssembleStage, "run", "pipeline.assemble")

    # core: precompile, tuning, block compilation, runtime plan replay.
    for cls in (strict._StrictPartialCompiler, flexible._FlexiblePartialCompiler):
        tracer.patch_method(cls, "compile", "core.runtime")
        tracer.patch_method(cls, "precompile_many", "core.precompile")
    tracer.patch_function("repro.core.hyperopt", "tune_hyperparameters", "core.tune")
    tracer.patch_function("repro.core.flexible", "_compile_runtime_entry",
                          "core.runtime_block")
    for attr in ("compile_block", "compile_job", "compile_blocks_batched"):
        tracer.patch_method(BlockPulseCompiler, attr, "core.block")

    # library: pulse store reads/writes and warm-start neighbor search.
    tracer.patch_method(cache.PulseCache, "get", "library.get")
    tracer.patch_method(cache.PulseCache, "put", "library.put")
    tracer.patch_method(cache.PulseCache, "find_neighbor", "library.neighbor")
    tracer.patch_method(cache.PersistentPulseCache, "find_neighbor",
                        "library.neighbor")
    tracer.patch_method(neighbors.NeighborIndex, "find_nearest", "library.neighbor")

    # grape: time search, optimizer, cost/gradient kernel.
    tracer.patch_function("repro.pulse.grape.time_search", "minimum_time_pulse",
                          "grape.time_search", after=_observe_search)
    tracer.patch_function(
        "repro.pulse.grape.batched", "minimum_time_pulse_batch",
        "grape.time_search",
        after=_observe("grape.probes",
                       lambda a, k, r: [p for res in r for p in res.probes]),
    )
    tracer.patch_function(
        "repro.pulse.grape.engine", "optimize_pulse", "grape.optimize",
        after=_observe("grape.optimize", lambda a, k, r: (1, r.iterations)),
    )
    tracer.patch_function(
        "repro.pulse.grape.batched", "optimize_pulse_batch", "grape.optimize",
        after=_observe("grape.optimize",
                       lambda a, k, r: (len(r), sum(x.iterations for x in r))),
    )
    tracer.patch_method(cost.GrapeCost, "cost_and_gradient", "grape.cost_grad")
    tracer.patch_method(batched.BatchedGrapeCost, "cost_and_gradient",
                        "grape.cost_grad")

    # fleet: job dispatch and the workers' completion records.
    tracer.patch_method(
        dispatcher.QueueDispatcher, "dispatch_jobs", "fleet.dispatch",
        after=_observe("fleet.jobs", lambda a, k, r: len(r)),
    )
    tracer.patch_method(queue.FleetQueue, "enqueue", "fleet.enqueue",
                        after=_link_job)
    tracer.patch_method(
        queue.FleetQueue, "consume_result", "fleet.consume",
        after=lambda t, a, k, r: r is not None and t.observe(
            "fleet.busy_s", float(r.get("wall_time_s") or 0.0)),
    )
    return tracer


# -- fleet workers ------------------------------------------------------------
def install_worker(directory: str) -> Tracer:
    """Trace this fleet worker process; its spans, keyed by job id, go to
    ``<directory>/<pid>.json`` when the process exits."""
    from repro.fleet.worker import FleetWorker

    tracer = install(Tracer())

    def job_context(args, kwargs):
        job_id = args[1] if len(args) > 1 else kwargs["job_id"]
        tracer.links[("job", job_id)] = (job_id, None)
        return ("job", job_id)

    tracer.patch_method(FleetWorker, "_run_one", "fleet.job", adopt=job_context)
    path = Path(directory) / f"{os.getpid()}.json"

    def dump():
        path.write_text(json.dumps({
            "spans": [
                [s.sid, s.parent, s.rid, s.name, s.start, s.end]
                for s in tracer.spans
            ],
            "observations": [[o.rid, o.name, o.value] for o in tracer.observations],
        }, default=list))

    atexit.register(dump)
    return tracer


def merge_worker_spans(tracer: Tracer, directory) -> int:
    """Adopt the span files fleet workers wrote into ``directory``: each
    job's spans join the request whose dispatch enqueued the job, with the
    job's root span under that dispatch span.  Returns the files merged."""
    paths = sorted(Path(directory).glob("*.json"))
    for index, path in enumerate(paths, start=1):
        data = json.loads(path.read_text())
        offset = index * 10**9  # keep span ids unique across processes
        for sid, parent, job_id, name, start, end in data["spans"]:
            rid, dispatch = tracer.links.get(("job", job_id), (None, None))
            parent = dispatch if parent is None else parent + offset
            tracer.spans.append(Span(sid + offset, parent, rid, name, start, end))
        for job_id, name, value in data["observations"]:
            rid = tracer.links.get(("job", job_id), (None, None))[0]
            tracer.observations.append(Observation(rid, name, value))
    return len(paths)
