"""Pluggable executors for independent per-block work.

Blocking partitions a circuit into subcircuits whose GRAPE searches share
nothing but the pulse cache, so they parallelize embarrassingly.  The
executors here expose exactly one operation — order-preserving ``map`` —
which keeps the pipeline deterministic: results come back aligned with
their tasks regardless of completion order.

Choosing an executor
--------------------
``serial``
    The seed behavior; zero overhead, best for one block or tiny budgets.
``auto``
    Host-aware policy (the service default).  On 1–2 CPU hosts it runs
    maps inline and steers the scheduler toward the cross-block *batched*
    GRAPE kernel (:mod:`repro.pulse.grape.batched`) — the only parallelism
    that pays without spare cores.  On larger hosts, maps of ≥3 items
    delegate to the shared ``thread-persistent`` pool; tiny maps stay
    inline.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``.  Shares the in-memory pulse
    cache; speedup is bounded by how much of GRAPE's time the BLAS layer
    spends outside the GIL.
``process``
    ``concurrent.futures.ProcessPoolExecutor`` (fork start method where
    available).  True CPU parallelism; the submitted callables and their
    results must be picklable, and in-memory cache writes made by workers
    stay in the workers — pair this executor with a persistent cache
    directory (``REPRO_CACHE_DIR``) so GRAPE results survive the pool.
``thread-persistent`` / ``process-persistent``
    The persistent variants keep ONE pool alive across every ``map`` call
    instead of spinning a fresh pool up and down per call.  Variational
    workloads (flexible partial compilation's probes, repeated runtime
    compiles against one precompiled plan) issue many small maps, so pool
    startup — worker fork + numpy re-init for processes — used to be paid
    per iteration; now it is paid once per pipeline run.  The pool is
    created lazily on the first multi-item map (``pools_created``
    telemetry, mirrored into :func:`repro.perf.get_perf_registry`),
    released by ``close()`` or a ``with`` block, and recreated
    transparently if used again after closing.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable

from repro.config import EXECUTOR_CHOICES, env_config
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.service.config import usable_cpu_count

#: Per-worker deserialized task function (set by the pool initializer).
_process_worker_fn = None


def _init_process_worker(payload: bytes) -> None:
    """Deserialize the mapped function once per worker process.

    Mapping the function itself would re-pickle it (and everything it
    closes over — e.g. a block compiler with its cache) once per task;
    routing it through the pool initializer ships it once per worker.
    """
    global _process_worker_fn
    _process_worker_fn = pickle.loads(payload)


def _run_process_item(item):
    return _process_worker_fn(item)


class Dispatcher:
    """Where serializable block jobs go to be compiled.

    The dispatch contract of the fleet refactor: callers hand over
    picklable :class:`~repro.pipeline.jobs.BlockJob` descriptors instead
    of closures, so implementations are free to run them in the calling
    thread, a local pool, or a different process entirely
    (:class:`repro.fleet.QueueDispatcher`).  Every in-process executor
    implements it via its own ``map``.
    """

    def dispatch_jobs(self, jobs: list, cache=None) -> list:
        """Compile every job, returning outcomes in input order.

        ``cache`` is the caller's pulse cache, shared with in-process
        runners so their hits and writes land where the caller looks;
        out-of-process dispatchers ignore it and rely on each job's
        ``cache_dir``.
        """
        raise NotImplementedError


class BlockExecutor(Dispatcher):
    """Order-preserving map over independent block tasks."""

    name = "abstract"
    #: Whether the scheduler should stack same-shape GRAPE searches into the
    #: cross-block batched kernel instead of mapping per-block tasks.  True
    #: for executors that run tasks in the calling thread (serial/auto
    #: inline): batching turns their sequential small GEMMs into big ones.
    #: False for the pool executors — stacking would serialize work the pool
    #: could genuinely overlap.
    prefers_batched = False

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        raise NotImplementedError

    def dispatch_jobs(self, jobs: list, cache=None) -> list:
        """Run block jobs through this executor's own ``map``.

        ``partial`` over the module-level runner keeps the mapped callable
        picklable, so the process-pool executors ship jobs unchanged.
        """
        from functools import partial

        from repro.pipeline.jobs import run_block_job

        return self.map(partial(run_block_job, cache=cache), jobs)

    def describe(self) -> dict:
        """Telemetry fragment identifying this executor."""
        return {"executor": self.name}


class SerialExecutor(BlockExecutor):
    """In-line execution — the seed behavior and the fallback everywhere."""

    name = "serial"
    prefers_batched = True

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


class _PoolBlockExecutor(BlockExecutor):
    """Shared sizing logic for the pool-backed executors."""

    def __init__(self, max_workers: int | None = None):
        if max_workers is None:
            max_workers = env_config().max_workers
        self.max_workers = max_workers or usable_cpu_count()

    def describe(self) -> dict:
        return {"executor": self.name, "max_workers": self.max_workers}

    def _workers_for(self, count: int) -> int:
        return max(1, min(self.max_workers, count))


class ThreadPoolBlockExecutor(_PoolBlockExecutor):
    """Thread-pool dispatch sharing one in-memory pulse cache."""

    name = "thread"

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self._workers_for(len(items))) as pool:
            return list(pool.map(fn, items))


class ProcessPoolBlockExecutor(_PoolBlockExecutor):
    """Process-pool dispatch for GIL-free parallel GRAPE."""

    name = "process"

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Fork (where available) inherits the loaded numpy state instead of
        # re-importing it per worker; spawn platforms fall back to default.
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=self._workers_for(len(items)),
            mp_context=context,
            initializer=_init_process_worker,
            initargs=(pickle.dumps(fn),),
        ) as pool:
            return list(pool.map(_run_process_item, items))


def _run_persistent_chunk(payload: bytes, items: list) -> list:
    """Run one interleaved chunk of a persistent-pool map in a worker.

    The handler is unpickled once per *chunk* (≤ ``max_workers`` times per
    map — the same shipping cost as the one-shot pool's initializer), not
    once per item.  No worker-side memoization: real handlers embed
    mutable state (block compilers carry pulse-cache telemetry), so their
    pickle bytes differ between maps and a digest cache would never hit.
    """
    fn = pickle.loads(payload)
    return [fn(item) for item in items]


class _PersistentPoolMixin:
    """One lazily created pool, reused across every ``map`` call.

    Subclasses provide ``_make_pool()``.  ``pools_created`` / ``map_calls``
    make the amortization checkable: a pipeline run that issues N maps must
    end with ``pools_created == 1``.
    """

    def _init_persistent(self) -> None:
        self._pool = None
        # Shared instances (see resolve_executor) may be used from several
        # threads; the lock keeps pool creation/teardown race-free so a
        # lost race can never orphan a pool of live workers.
        self._pool_lock = threading.Lock()
        self.pools_created = 0
        self.map_calls = 0

    def _ensure_pool(self):
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = self._make_pool()
                    self.pools_created += 1
                    get_perf_registry().count(
                        f"executor.{self.name}.pools_created"
                    )
        return pool

    def close(self) -> None:
        """Shut the pool down (joins workers).  ``map`` after close re-creates.

        Idempotent and race-tolerant by design: the pool is detached under
        the lock (so concurrent/repeated ``close`` calls see ``None`` and
        no-op), and the shutdown itself is shielded — the ``atexit`` hook
        can race an explicit teardown (test teardown then interpreter
        exit), where ``Executor.shutdown`` may raise on an interpreter
        already finalizing its thread machinery.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                # Late-interpreter shutdown debris; the workers die with the
                # process either way, and close() must never raise.
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Neither the live pool nor the lock can cross a pickle boundary (e.g.
    # an executor that ends up inside a worker payload); the receiver
    # lazily re-creates both.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None
        del state["_pool_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool_lock = threading.Lock()

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "max_workers": self.max_workers,
            "pools_created": self.pools_created,
            "map_calls": self.map_calls,
        }


class PersistentThreadPoolBlockExecutor(_PersistentPoolMixin, _PoolBlockExecutor):
    """Thread pool created once and reused across ``map`` calls."""

    name = "thread-persistent"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._init_persistent()

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self.map_calls += 1
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))


class PersistentProcessPoolBlockExecutor(_PersistentPoolMixin, _PoolBlockExecutor):
    """Process pool created once and reused across ``map`` calls.

    Tasks are dispatched as up-to-``max_workers`` interleaved chunks
    (``items[j::workers]``), which balances heterogeneous block costs and
    ships (and unpickles) the map function once per chunk rather than
    once per item.  Results are reassembled in input order.
    """

    name = "process-persistent"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._init_persistent()

    def _make_pool(self) -> ProcessPoolExecutor:
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.max_workers, mp_context=context)

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self.map_calls += 1
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        payload = pickle.dumps(fn)
        workers = self._workers_for(len(items))
        futures = [
            pool.submit(_run_persistent_chunk, payload, items[j::workers])
            for j in range(workers)
        ]
        results: list = [None] * len(items)
        for j, future in enumerate(futures):
            for offset, value in enumerate(future.result()):
                results[j + offset * workers] = value
        return results


class AutoExecutor(BlockExecutor):
    """Host-aware dispatch policy: serial, in-kernel batching, or a pool.

    The right executor depends on the host, not the workload author: on a
    1–2 CPU machine every pool loses to serial (pool startup and IPC with
    no cores to win back — the measured pipeline benches showed 0.88–0.96×
    for pools there), while on a many-core host the
    persistent thread pool wins for large maps.  ``auto`` decides per host
    and per map:

    * at most 2 usable CPUs (the process's affinity mask) → *inline
      mode*: every map runs in the calling thread, the scheduler is told
      to prefer the cross-block **batched** GRAPE kernel (big GEMMs are
      the only parallelism that pays here).
    * otherwise → maps of ≥3 items delegate to the shared
      ``thread-persistent`` pool (threads keep in-memory pulse-cache writes
      visible, unlike processes, so auto never silently changes caching
      semantics); tiny maps still run inline.

    Without an explicit ``max_workers`` the delegated pool is sized from
    *observed demand* rather than pinned to ``cpu_count`` up front: the
    first delegation grants a small pool, and the grant doubles toward
    ``min(cpu_count, largest map seen)`` as bigger maps arrive.  A
    many-core host compiling 4-block circuits keeps 4 threads, not 64;
    the first genuinely wide map grows the grant (each step resolves a
    larger shared pool from the persistent registry, so the growth cost
    is pool creation, paid at most ``log2`` times).
    """

    name = "auto"

    #: First worker grant on a delegating host (before demand is observed).
    INITIAL_GRANT = 4

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self.cpu_count = usable_cpu_count()
        self.prefers_inline = self.cpu_count <= 2
        self.prefers_batched = self.prefers_inline
        self.inline_maps = 0
        self.delegated_maps = 0
        self.largest_map = 0
        self.granted_workers = max_workers
        self.pool_growths = 0

    def _grown_workers(self, count: int) -> int:
        """The worker grant for a delegated map of ``count`` items."""
        if self.max_workers is not None:
            return self.max_workers
        self.largest_map = max(self.largest_map, count)
        target = min(self.cpu_count, self.largest_map)
        granted = self.granted_workers or min(self.INITIAL_GRANT, self.cpu_count)
        while granted < target:
            granted = min(granted * 2, self.cpu_count)
            self.pool_growths += 1
        self.granted_workers = granted
        return granted

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if self.prefers_inline or len(items) < 3:
            self.inline_maps += 1
            return [fn(item) for item in items]
        self.delegated_maps += 1
        workers = self._grown_workers(len(items))
        return resolve_executor("thread-persistent", workers).map(fn, items)

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "cpu_count": self.cpu_count,
            "mode": "inline" if self.prefers_inline else "thread-persistent",
            "inline_maps": self.inline_maps,
            "delegated_maps": self.delegated_maps,
            "granted_workers": self.granted_workers,
            "largest_map": self.largest_map,
            "pool_growths": self.pool_growths,
        }


#: Process-wide persistent executors, keyed by (name, resolved workers).
#: Compilers re-resolve their executor spec on every ``compile`` call, so
#: persistent executors named by string / ``REPRO_EXECUTOR`` must resolve
#: to ONE shared instance — otherwise each variational iteration would
#: build (and leak) a fresh pool, defeating the amortization entirely.
_persistent_executors: dict = {}
_persistent_registry_lock = threading.Lock()
_PERSISTENT_CLASSES = {
    "thread-persistent": PersistentThreadPoolBlockExecutor,
    "process-persistent": PersistentProcessPoolBlockExecutor,
}


def persistent_executor_stats() -> list:
    """Telemetry for every shared persistent pool created so far.

    One ``describe()`` dict per registered executor (``pools_created`` /
    ``map_calls`` included), so CLI surfaces like ``cache-stats`` can show
    how well the pool amortization is working process-wide.
    """
    with _persistent_registry_lock:
        return [executor.describe() for executor in _persistent_executors.values()]


def shutdown_persistent_executors() -> None:
    """Close every shared persistent pool (they revive lazily if reused).

    Registered via ``atexit`` so named pools never outlive the process
    uncleanly; callers managing their own lifecycle can invoke it earlier.
    Idempotent: calling it twice (test teardown, then the ``atexit`` hook
    at interpreter exit) finds already-closed pools and does nothing, and
    one failing close never prevents the remaining pools from shutting
    down.
    """
    with _persistent_registry_lock:
        executors = list(_persistent_executors.values())
    for executor in executors:
        try:
            executor.close()
        except Exception:
            # close() itself shields shutdown errors; this guards against
            # exotic subclasses so the sweep always reaches every pool.
            pass


atexit.register(shutdown_persistent_executors)


def resolve_executor(
    spec: str | BlockExecutor | None = None, max_workers: int | None = None
) -> BlockExecutor:
    """Turn an executor spec into an executor instance.

    ``spec`` may be an executor instance (returned as-is), one of the names
    in :data:`repro.config.EXECUTOR_CHOICES`, or ``None`` for the
    environment's choice (``REPRO_EXECUTOR``, default ``auto``).  The
    stateless names resolve to fresh instances; the ``*-persistent`` names
    resolve to one shared instance per (name, worker count) so the pool
    survives — and amortizes across — repeated ``compile`` calls.
    """
    if isinstance(spec, BlockExecutor):
        return spec
    if spec is None:
        spec = env_config().executor
    if spec == "serial":
        return SerialExecutor()
    if spec == "auto":
        return AutoExecutor(max_workers)
    if spec == "thread":
        return ThreadPoolBlockExecutor(max_workers)
    if spec == "process":
        return ProcessPoolBlockExecutor(max_workers)
    if spec in _PERSISTENT_CLASSES:
        # Normalize the worker count before keying: ``None`` means "the
        # environment's/default count", so an explicit request for that
        # same count aliases the same pool.
        if max_workers is None:
            workers = env_config().max_workers or usable_cpu_count()
        else:
            workers = max_workers
        key = (spec, workers)
        with _persistent_registry_lock:
            executor = _persistent_executors.get(key)
            if executor is None:
                executor = _PERSISTENT_CLASSES[spec](workers)
                _persistent_executors[key] = executor
        return executor
    raise PipelineError(
        f"unknown executor {spec!r}; available: {EXECUTOR_CHOICES}"
    )
