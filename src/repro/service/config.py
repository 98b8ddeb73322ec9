"""Typed, immutable configuration for the compilation service.

:class:`ServiceConfig` consolidates every ``REPRO_*`` environment knob —
executor, worker count, cache directory/sharding/budget, prefetch, preset,
scheduler-state spill path, GRAPE batching, warm-start seeding, scan block
size — into one frozen dataclass.
:meth:`ServiceConfig.from_env` is the **only** code path in the whole
package that reads ``REPRO_*`` environment variables (a repo test greps
for strays), so "what configuration am I actually running with?" always
has one answer: ``python -m repro config show``.

Parsing is tolerant by design: this runs at import time (via
:mod:`repro.config`), so malformed values fall back to defaults with a
warning instead of making ``import repro`` crash.

This module sits *below* :mod:`repro.config` in the import graph (it
depends only on :mod:`repro.errors`), which is why the executor and shard
choice constants live here and are re-exported from :mod:`repro.config`
for backwards compatibility.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields, replace

from repro.errors import ReproError

#: Executor names understood by the compilation pipeline.  The
#: ``*-persistent`` variants keep one worker pool alive across every
#: ``map`` call of a pipeline run instead of re-creating it per call.
EXECUTOR_CHOICES = (
    "serial",
    "auto",
    "thread",
    "process",
    "thread-persistent",
    "process-persistent",
)

#: Valid shard fan-outs for the on-disk pulse library: entries shard by a
#: whole-hex-character prefix of their unitary fingerprint, so the count
#: must be a power of 16.
CACHE_SHARD_CHOICES = (16, 256, 4096)

#: How fixed-block jobs leave the service: ``"executor"`` keeps them on
#: the in-process block executor; ``"queue"`` routes them through the
#: file-backed fleet queue to detached worker processes.
DISPATCHER_CHOICES = ("executor", "queue")


class ReproDeprecationWarning(DeprecationWarning):
    """Deprecation category for repro's legacy entry-point shims.

    A dedicated subclass so CI can run the suite with
    ``-W error::DeprecationWarning`` while downgrading exactly the shims'
    warnings back to non-fatal
    (``-W default::repro.service.config.ReproDeprecationWarning``), proving
    the old constructors still work and warn without masking third-party
    deprecations.
    """


def _env_number(
    env_name: str,
    field_name: str,
    kind,
    valid,
    requirement: str,
    values: dict,
    sources: dict,
) -> None:
    """Parse one numeric env var with the standard tolerant behaviour:
    unset/empty keeps the default, malformed or out-of-range warns."""
    raw = os.environ.get(env_name)
    if not raw:
        return
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        warnings.warn(
            f"ignoring {env_name}={raw!r} (not {noun})", stacklevel=4
        )
        return
    if not valid(value):
        warnings.warn(
            f"ignoring {env_name}={value} ({requirement})", stacklevel=4
        )
        return
    values[field_name] = value
    sources[field_name] = "env"


def _env_bool(
    env_name: str, field_name: str, values: dict, sources: dict
) -> None:
    """Parse one boolean env var (same spellings as REPRO_PREFETCH)."""
    raw = os.environ.get(env_name, "")
    if not raw:
        return
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        values[field_name] = True
        sources[field_name] = "env"
    elif lowered in ("0", "false", "no", "off"):
        values[field_name] = False
        sources[field_name] = "env"
    else:
        warnings.warn(
            f"ignoring {env_name}={raw!r} (expected a boolean)", stacklevel=4
        )


def warn_deprecated(old: str, strategy: str) -> None:
    """Emit the one-per-call shim warning pointing at the service facade."""
    warnings.warn(
        f"{old} is deprecated; use repro.service.CompilationService."
        f"compile(CompileRequest(strategy={strategy!r})) — the legacy class "
        "delegates to the same registered strategy implementation",
        ReproDeprecationWarning,
        stacklevel=3,
    )


def usable_cpu_count() -> int:
    """CPUs this process may run on — its affinity mask, not the host total.

    Pool sizes follow this, so a process pinned with ``taskset -c 0`` on a
    many-core host sizes like a 1-CPU host.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ServiceConfig:
    """Execution settings for the compilation service (and everything
    underneath it).

    Attributes
    ----------
    executor:
        How independent per-block GRAPE searches are dispatched
        (``REPRO_EXECUTOR``): ``"auto"`` (default) picks per host —
        inline execution plus cross-block batched GRAPE on 1–2 CPU
        machines, the shared thread pool for large maps elsewhere — or
        force ``"serial"``, ``"thread"``, ``"process"``, or the
        ``"thread-persistent"`` / ``"process-persistent"`` variants that
        amortize one long-lived pool across every map of a run.
    max_workers:
        Worker count for the parallel executors (``REPRO_MAX_WORKERS``);
        ``None`` means :func:`usable_cpu_count`.
    submit_workers:
        Size of the request-level thread pool behind
        :meth:`repro.service.CompilationService.submit`
        (``REPRO_SUBMIT_WORKERS``).  Defaults to
        ``min(8, usable_cpu_count())`` — enough to overlap non-conflicting
        requests without oversubscribing block-level workers.
    cache_dir:
        Directory for the persistent pulse cache (``REPRO_CACHE_DIR``).
        ``None`` keeps the cache purely in memory.
    cache_shards:
        Shard fan-out of the on-disk pulse library
        (``REPRO_CACHE_SHARDS``); one of :data:`CACHE_SHARD_CHOICES`.
    cache_budget_mb:
        Default size budget for :meth:`repro.library.PulseLibrary.gc`
        (``REPRO_CACHE_BUDGET_MB``).  ``None`` means unbounded.
    prefetch:
        Manifest-aware shard prefetch for the on-disk pulse library
        (``REPRO_PREFETCH``).
    preset:
        The active workload preset name (``REPRO_PRESET``); validated
        lazily by :func:`repro.config.get_preset` so an unknown name only
        errors when actually used.
    scheduler_state_path:
        Where the service spills its cross-call block-dedup memory
        (``REPRO_SCHEDULER_STATE``).  When set, a new
        :class:`~repro.service.CompilationService` resumes the dedup
        memory a previous process saved there, and saves its own on
        ``close()``.  ``None`` keeps scheduler state process-local.
    grape_batch:
        Whether the batch scheduler may stack same-shape cold blocks into
        the cross-block batched GRAPE kernel
        (:mod:`repro.pulse.grape.batched`) when the executor runs tasks
        inline (``REPRO_GRAPE_BATCH``).  Results are bit-identical to the
        per-block kernel; this knob exists for debugging and A/B timing.
    grape_batch_size:
        Cap on how many blocks one batched GRAPE group stacks
        (``REPRO_GRAPE_BATCH_SIZE``); bounds the stacked kernel's
        working-set memory.
    warm_start:
        Whether cache-missing blocks warm-start GRAPE from the nearest
        cached pulse — or, for seedless two-qubit blocks, from the
        analytic KAK seed — instead of random fields
        (``REPRO_WARM_START``).  A best-of guard makes seeding strictly
        safe (never a worse pulse than a cold start), so this knob exists
        for debugging and A/B iteration counts.
    warm_start_max_dist:
        Acceptance threshold for approximate-match retrieval
        (``REPRO_WARM_START_MAX_DIST``): a cached pulse seeds a new block
        only when the phase-invariant trace distance
        ``sqrt(1 - |tr(U†V)|/d)`` between the targets is at most this, in
        ``(0, 1]``.  ``1.0`` accepts any same-context pulse; the default
        0.25 keeps seeds to genuinely nearby unitaries.
    scan_block:
        Fixed block size for the blocked propagator scan of
        :mod:`repro.linalg.scan` (``REPRO_SCAN_BLOCK``).  ``None`` (the
        default) keeps the auto heuristic (``≈√n_steps``); setting it
        pins the chunk length for cache tuning on unusual hosts.
    dispatcher:
        Where fixed-block jobs are compiled (``REPRO_DISPATCHER``):
        ``"executor"`` (default) keeps them on the in-process block
        executor; ``"queue"`` sends them through the
        :class:`repro.fleet.QueueDispatcher` to detached worker
        processes sharing the fleet queue directory.
    fleet_dir:
        The fleet queue directory (``REPRO_FLEET_DIR``).  ``None`` with
        ``dispatcher="queue"`` derives ``<cache_dir>/fleet``; with no
        cache directory either, service construction fails.
    fleet_workers:
        How many local worker processes the queue dispatcher spawns and
        keeps alive (``REPRO_FLEET_WORKERS``).  ``0`` (default) spawns
        none — jobs run inline unless external workers drain the queue.
    queue_depth:
        Bounded admission for :meth:`repro.service.CompilationService
        .submit` (``REPRO_QUEUE_DEPTH``): at most this many requests may
        be queued or running at once; further ``submit`` calls block
        until a slot frees (backpressure).  ``None`` (default) admits
        without bound.
    fleet_lease_ttl_s:
        Lease time-to-live for fleet jobs (``REPRO_FLEET_LEASE_TTL``,
        seconds).  A claimed job whose lease heartbeat goes silent for
        this long is reclaimed by another worker.
    fleet_heartbeat_s:
        Worker heartbeat interval (``REPRO_FLEET_HEARTBEAT``, seconds).
        ``None`` (default) derives ``lease_ttl / 3`` — three missed beats
        before a lease goes stale.  Must be shorter than the lease TTL.
    fleet_autoscale:
        Let the queue dispatcher scale its local worker pool from queue
        depth (``REPRO_FLEET_AUTOSCALE``) between ``fleet_min_workers``
        and ``fleet_max_workers``, instead of keeping a fixed
        ``fleet_workers`` count alive.
    fleet_min_workers:
        Autoscaler floor (``REPRO_FLEET_MIN_WORKERS``): core workers kept
        alive even when the queue is empty.
    fleet_max_workers:
        Autoscaler ceiling (``REPRO_FLEET_MAX_WORKERS``): surge workers
        stop being added once the pool reaches this size.
    server_host / server_port:
        Bind address for ``python -m repro serve``
        (``REPRO_SERVER_HOST`` / ``REPRO_SERVER_PORT``).  Port ``0``
        picks an ephemeral port.
    server_max_body_mb:
        Largest ``POST /v1/compile`` body the HTTP frontend accepts
        (``REPRO_SERVER_MAX_BODY_MB``); bigger requests get 413.
    server_ticket_ttl_s:
        How long the HTTP frontend retains a finished, unfetched async
        ticket (``REPRO_SERVER_TICKET_TTL``, seconds).
    """

    executor: str = "auto"
    max_workers: int | None = None
    submit_workers: int = field(
        default_factory=lambda: min(8, usable_cpu_count())
    )
    cache_dir: str | None = None
    cache_shards: int = 16
    cache_budget_mb: float | None = None
    prefetch: bool = False
    preset: str = "ci"
    scheduler_state_path: str | None = None
    grape_batch: bool = True
    grape_batch_size: int = 16
    warm_start: bool = True
    warm_start_max_dist: float = 0.25
    scan_block: int | None = None
    dispatcher: str = "executor"
    fleet_dir: str | None = None
    fleet_workers: int = 0
    queue_depth: int | None = None
    fleet_lease_ttl_s: float = 30.0
    fleet_heartbeat_s: float | None = None
    fleet_autoscale: bool = False
    fleet_min_workers: int = 0
    fleet_max_workers: int = 4
    server_host: str = "127.0.0.1"
    server_port: int = 8642
    server_max_body_mb: float = 32.0
    server_ticket_ttl_s: float = 3600.0

    def __post_init__(self):
        if self.executor not in EXECUTOR_CHOICES:
            raise ReproError(
                f"unknown executor {self.executor!r}; available: {EXECUTOR_CHOICES}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.submit_workers < 1:
            raise ReproError(
                f"submit_workers must be >= 1, got {self.submit_workers}"
            )
        if self.cache_shards not in CACHE_SHARD_CHOICES:
            raise ReproError(
                f"cache_shards must be one of {CACHE_SHARD_CHOICES}, "
                f"got {self.cache_shards}"
            )
        if self.cache_budget_mb is not None and self.cache_budget_mb <= 0:
            raise ReproError(
                f"cache_budget_mb must be positive, got {self.cache_budget_mb}"
            )
        if self.grape_batch_size < 1:
            raise ReproError(
                f"grape_batch_size must be >= 1, got {self.grape_batch_size}"
            )
        if not 0.0 < self.warm_start_max_dist <= 1.0:
            raise ReproError(
                "warm_start_max_dist must be in (0, 1], "
                f"got {self.warm_start_max_dist}"
            )
        if self.scan_block is not None and self.scan_block < 1:
            raise ReproError(
                f"scan_block must be >= 1, got {self.scan_block}"
            )
        if self.dispatcher not in DISPATCHER_CHOICES:
            raise ReproError(
                f"unknown dispatcher {self.dispatcher!r}; "
                f"available: {DISPATCHER_CHOICES}"
            )
        if self.fleet_workers < 0:
            raise ReproError(
                f"fleet_workers must be >= 0, got {self.fleet_workers}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ReproError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.fleet_lease_ttl_s <= 0:
            raise ReproError(
                f"fleet_lease_ttl_s must be positive, got {self.fleet_lease_ttl_s}"
            )
        if self.fleet_heartbeat_s is not None:
            if self.fleet_heartbeat_s <= 0:
                raise ReproError(
                    f"fleet_heartbeat_s must be positive, "
                    f"got {self.fleet_heartbeat_s}"
                )
            if self.fleet_heartbeat_s >= self.fleet_lease_ttl_s:
                raise ReproError(
                    f"fleet_heartbeat_s ({self.fleet_heartbeat_s}) must be "
                    f"shorter than fleet_lease_ttl_s "
                    f"({self.fleet_lease_ttl_s}) or every lease goes stale "
                    "between beats"
                )
        if self.fleet_min_workers < 0:
            raise ReproError(
                f"fleet_min_workers must be >= 0, got {self.fleet_min_workers}"
            )
        if self.fleet_max_workers < 1:
            raise ReproError(
                f"fleet_max_workers must be >= 1, got {self.fleet_max_workers}"
            )
        if self.fleet_min_workers > self.fleet_max_workers:
            raise ReproError(
                f"fleet_min_workers ({self.fleet_min_workers}) must not "
                f"exceed fleet_max_workers ({self.fleet_max_workers})"
            )
        if not 0 <= self.server_port <= 65535:
            raise ReproError(
                f"server_port must be in [0, 65535], got {self.server_port}"
            )
        if self.server_max_body_mb <= 0:
            raise ReproError(
                f"server_max_body_mb must be positive, "
                f"got {self.server_max_body_mb}"
            )
        if self.server_ticket_ttl_s <= 0:
            raise ReproError(
                f"server_ticket_ttl_s must be positive, "
                f"got {self.server_ticket_ttl_s}"
            )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ServiceConfig":
        """The configuration selected by the ``REPRO_*`` environment.

        The single supported env-reading path: every other module obtains
        environment-derived settings through this constructor (directly or
        via :mod:`repro.config`'s compatibility wrappers).
        """
        config, _sources = cls.from_env_with_sources()
        return config

    @classmethod
    def from_env_with_sources(cls) -> tuple:
        """Like :meth:`from_env`, plus a ``{field: "env" | "default"}`` map.

        The source map is what ``python -m repro config show`` prints, so
        debugging a mis-set environment never requires a source dive.
        """
        values: dict = {}
        sources = {f.name: "default" for f in fields(cls)}

        executor = os.environ.get("REPRO_EXECUTOR")
        if executor is not None:
            if executor in EXECUTOR_CHOICES:
                values["executor"] = executor
                sources["executor"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_EXECUTOR={executor!r}; "
                    f"available: {EXECUTOR_CHOICES}",
                    stacklevel=3,
                )

        workers_raw = os.environ.get("REPRO_MAX_WORKERS")
        if workers_raw:
            try:
                workers = int(workers_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_MAX_WORKERS={workers_raw!r} (not an integer)",
                    stacklevel=3,
                )
            else:
                if workers < 1:
                    warnings.warn(
                        f"ignoring REPRO_MAX_WORKERS={workers} (must be >= 1)",
                        stacklevel=3,
                    )
                else:
                    values["max_workers"] = workers
                    sources["max_workers"] = "env"

        submit_raw = os.environ.get("REPRO_SUBMIT_WORKERS")
        if submit_raw:
            try:
                submit_workers = int(submit_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_SUBMIT_WORKERS={submit_raw!r} "
                    "(not an integer)",
                    stacklevel=3,
                )
            else:
                if submit_workers < 1:
                    warnings.warn(
                        f"ignoring REPRO_SUBMIT_WORKERS={submit_workers} "
                        "(must be >= 1)",
                        stacklevel=3,
                    )
                else:
                    values["submit_workers"] = submit_workers
                    sources["submit_workers"] = "env"

        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            values["cache_dir"] = cache_dir
            sources["cache_dir"] = "env"

        shards_raw = os.environ.get("REPRO_CACHE_SHARDS")
        if shards_raw:
            try:
                candidate = int(shards_raw)
            except ValueError:
                candidate = None
            if candidate in CACHE_SHARD_CHOICES:
                values["cache_shards"] = candidate
                sources["cache_shards"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_CACHE_SHARDS={shards_raw!r}; "
                    f"available: {CACHE_SHARD_CHOICES}",
                    stacklevel=3,
                )

        budget_raw = os.environ.get("REPRO_CACHE_BUDGET_MB")
        if budget_raw:
            try:
                budget = float(budget_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_CACHE_BUDGET_MB={budget_raw!r} (not a number)",
                    stacklevel=3,
                )
            else:
                if budget <= 0:
                    warnings.warn(
                        f"ignoring REPRO_CACHE_BUDGET_MB={budget} (must be positive)",
                        stacklevel=3,
                    )
                else:
                    values["cache_budget_mb"] = budget
                    sources["cache_budget_mb"] = "env"

        prefetch_raw = os.environ.get("REPRO_PREFETCH", "")
        if prefetch_raw:
            lowered = prefetch_raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                values["prefetch"] = True
                sources["prefetch"] = "env"
            elif lowered in ("0", "false", "no", "off"):
                values["prefetch"] = False
                sources["prefetch"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_PREFETCH={prefetch_raw!r} (expected a boolean)",
                    stacklevel=3,
                )

        preset = os.environ.get("REPRO_PRESET")
        if preset:
            values["preset"] = preset
            sources["preset"] = "env"

        state_path = os.environ.get("REPRO_SCHEDULER_STATE")
        if state_path:
            values["scheduler_state_path"] = state_path
            sources["scheduler_state_path"] = "env"

        batch_raw = os.environ.get("REPRO_GRAPE_BATCH", "")
        if batch_raw:
            lowered = batch_raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                values["grape_batch"] = True
                sources["grape_batch"] = "env"
            elif lowered in ("0", "false", "no", "off"):
                values["grape_batch"] = False
                sources["grape_batch"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_GRAPE_BATCH={batch_raw!r} "
                    "(expected a boolean)",
                    stacklevel=3,
                )

        batch_size_raw = os.environ.get("REPRO_GRAPE_BATCH_SIZE")
        if batch_size_raw:
            try:
                batch_size = int(batch_size_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_GRAPE_BATCH_SIZE={batch_size_raw!r} "
                    "(not an integer)",
                    stacklevel=3,
                )
            else:
                if batch_size < 1:
                    warnings.warn(
                        f"ignoring REPRO_GRAPE_BATCH_SIZE={batch_size} "
                        "(must be >= 1)",
                        stacklevel=3,
                    )
                else:
                    values["grape_batch_size"] = batch_size
                    sources["grape_batch_size"] = "env"

        warm_raw = os.environ.get("REPRO_WARM_START", "")
        if warm_raw:
            lowered = warm_raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                values["warm_start"] = True
                sources["warm_start"] = "env"
            elif lowered in ("0", "false", "no", "off"):
                values["warm_start"] = False
                sources["warm_start"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_WARM_START={warm_raw!r} "
                    "(expected a boolean)",
                    stacklevel=3,
                )

        dist_raw = os.environ.get("REPRO_WARM_START_MAX_DIST")
        if dist_raw:
            try:
                dist = float(dist_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_WARM_START_MAX_DIST={dist_raw!r} "
                    "(not a number)",
                    stacklevel=3,
                )
            else:
                if not 0.0 < dist <= 1.0:
                    warnings.warn(
                        f"ignoring REPRO_WARM_START_MAX_DIST={dist} "
                        "(must be in (0, 1])",
                        stacklevel=3,
                    )
                else:
                    values["warm_start_max_dist"] = dist
                    sources["warm_start_max_dist"] = "env"

        scan_raw = os.environ.get("REPRO_SCAN_BLOCK")
        if scan_raw:
            try:
                scan_block = int(scan_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_SCAN_BLOCK={scan_raw!r} (not an integer)",
                    stacklevel=3,
                )
            else:
                if scan_block < 1:
                    warnings.warn(
                        f"ignoring REPRO_SCAN_BLOCK={scan_block} (must be >= 1)",
                        stacklevel=3,
                    )
                else:
                    values["scan_block"] = scan_block
                    sources["scan_block"] = "env"

        dispatcher = os.environ.get("REPRO_DISPATCHER")
        if dispatcher is not None:
            if dispatcher in DISPATCHER_CHOICES:
                values["dispatcher"] = dispatcher
                sources["dispatcher"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_DISPATCHER={dispatcher!r}; "
                    f"available: {DISPATCHER_CHOICES}",
                    stacklevel=3,
                )

        fleet_dir = os.environ.get("REPRO_FLEET_DIR")
        if fleet_dir:
            values["fleet_dir"] = fleet_dir
            sources["fleet_dir"] = "env"

        fleet_raw = os.environ.get("REPRO_FLEET_WORKERS")
        if fleet_raw:
            try:
                fleet_workers = int(fleet_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_FLEET_WORKERS={fleet_raw!r} "
                    "(not an integer)",
                    stacklevel=3,
                )
            else:
                if fleet_workers < 0:
                    warnings.warn(
                        f"ignoring REPRO_FLEET_WORKERS={fleet_workers} "
                        "(must be >= 0)",
                        stacklevel=3,
                    )
                else:
                    values["fleet_workers"] = fleet_workers
                    sources["fleet_workers"] = "env"

        depth_raw = os.environ.get("REPRO_QUEUE_DEPTH")
        if depth_raw:
            try:
                queue_depth = int(depth_raw)
            except ValueError:
                warnings.warn(
                    f"ignoring REPRO_QUEUE_DEPTH={depth_raw!r} "
                    "(not an integer)",
                    stacklevel=3,
                )
            else:
                if queue_depth < 1:
                    warnings.warn(
                        f"ignoring REPRO_QUEUE_DEPTH={queue_depth} "
                        "(must be >= 1)",
                        stacklevel=3,
                    )
                else:
                    values["queue_depth"] = queue_depth
                    sources["queue_depth"] = "env"

        _env_number(
            "REPRO_FLEET_LEASE_TTL", "fleet_lease_ttl_s", float,
            lambda v: v > 0, "must be positive", values, sources,
        )
        _env_number(
            "REPRO_FLEET_HEARTBEAT", "fleet_heartbeat_s", float,
            lambda v: v > 0, "must be positive", values, sources,
        )
        _env_bool("REPRO_FLEET_AUTOSCALE", "fleet_autoscale", values, sources)
        _env_number(
            "REPRO_FLEET_MIN_WORKERS", "fleet_min_workers", int,
            lambda v: v >= 0, "must be >= 0", values, sources,
        )
        _env_number(
            "REPRO_FLEET_MAX_WORKERS", "fleet_max_workers", int,
            lambda v: v >= 1, "must be >= 1", values, sources,
        )
        server_host = os.environ.get("REPRO_SERVER_HOST")
        if server_host:
            values["server_host"] = server_host
            sources["server_host"] = "env"
        _env_number(
            "REPRO_SERVER_PORT", "server_port", int,
            lambda v: 0 <= v <= 65535, "must be in [0, 65535]",
            values, sources,
        )
        _env_number(
            "REPRO_SERVER_MAX_BODY_MB", "server_max_body_mb", float,
            lambda v: v > 0, "must be positive", values, sources,
        )
        _env_number(
            "REPRO_SERVER_TICKET_TTL", "server_ticket_ttl_s", float,
            lambda v: v > 0, "must be positive", values, sources,
        )

        # Cross-field constraints stay tolerant here (this runs at import
        # time): a combination the constructor would reject falls back to
        # defaults with a warning instead of crashing ``import repro``.
        ttl = values.get("fleet_lease_ttl_s", 30.0)
        heartbeat = values.get("fleet_heartbeat_s")
        if heartbeat is not None and heartbeat >= ttl:
            warnings.warn(
                f"ignoring REPRO_FLEET_HEARTBEAT={heartbeat} (must be "
                f"shorter than the lease TTL of {ttl})",
                stacklevel=3,
            )
            del values["fleet_heartbeat_s"]
            sources["fleet_heartbeat_s"] = "default"
        min_workers = values.get("fleet_min_workers", 0)
        max_workers = values.get("fleet_max_workers", 4)
        if min_workers > max_workers:
            warnings.warn(
                f"ignoring REPRO_FLEET_MIN_WORKERS={min_workers} / "
                f"REPRO_FLEET_MAX_WORKERS={max_workers} (min exceeds max)",
                stacklevel=3,
            )
            values.pop("fleet_min_workers", None)
            values.pop("fleet_max_workers", None)
            sources["fleet_min_workers"] = "default"
            sources["fleet_max_workers"] = "default"

        return cls(**values), sources

    # -- utilities -----------------------------------------------------------
    def replace(self, **overrides) -> "ServiceConfig":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """Field → value, in declaration order (for stats and the CLI)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
