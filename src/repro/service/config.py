"""Typed, immutable configuration for the compilation service.

:class:`ServiceConfig` consolidates every ``REPRO_*`` environment knob —
executor, worker count, cache directory/sharding/budget, prefetch, preset,
scheduler-state spill path, GRAPE batching, warm-start seeding, fleet and
server settings — into one frozen dataclass.  It is the only config
object: a service passes its fields down explicitly, and code built
without one reads :func:`repro.config.env_config`.
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


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_number(kind, valid, requirement: str):
    """A parser for one numeric env var that rejects malformed or
    out-of-range values with the reason as the message."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(
                "not an integer" if kind is int else "not a number"
            ) from None
        if not valid(value):
            raise ValueError(requirement)
        return value

    return parse


def _parse_choice(choices: tuple):
    def parse(raw: str):
        if raw not in choices:
            raise ValueError(f"available: {choices}")
        return raw

    return parse


_AT_LEAST_ONE = _parse_number(int, lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = _parse_number(int, lambda v: v >= 0, "must be >= 0")
_POSITIVE = _parse_number(float, lambda v: v > 0, "must be positive")

#: Every ``REPRO_*`` knob: (variable, field, parser).  A parser raises
#: ``ValueError`` with the reason when the value is unusable.
_ENV_FIELDS = (
    ("REPRO_EXECUTOR", "executor", _parse_choice(EXECUTOR_CHOICES)),
    ("REPRO_MAX_WORKERS", "max_workers", _AT_LEAST_ONE),
    ("REPRO_SUBMIT_WORKERS", "submit_workers", _AT_LEAST_ONE),
    ("REPRO_CACHE_DIR", "cache_dir", str),
    (
        "REPRO_CACHE_SHARDS",
        "cache_shards",
        _parse_number(
            int,
            lambda v: v in CACHE_SHARD_CHOICES,
            f"available: {CACHE_SHARD_CHOICES}",
        ),
    ),
    ("REPRO_CACHE_BUDGET_MB", "cache_budget_mb", _POSITIVE),
    ("REPRO_PREFETCH", "prefetch", _parse_bool),
    ("REPRO_PRESET", "preset", str),
    ("REPRO_SCHEDULER_STATE", "scheduler_state_path", str),
    ("REPRO_GRAPE_BATCH", "grape_batch", _parse_bool),
    ("REPRO_GRAPE_BATCH_SIZE", "grape_batch_size", _AT_LEAST_ONE),
    ("REPRO_WARM_START", "warm_start", _parse_bool),
    (
        "REPRO_WARM_START_MAX_DIST",
        "warm_start_max_dist",
        _parse_number(float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    ),
    ("REPRO_DISPATCHER", "dispatcher", _parse_choice(DISPATCHER_CHOICES)),
    ("REPRO_FLEET_DIR", "fleet_dir", str),
    ("REPRO_FLEET_WORKERS", "fleet_workers", _NON_NEGATIVE),
    ("REPRO_QUEUE_DEPTH", "queue_depth", _AT_LEAST_ONE),
    ("REPRO_FLEET_LEASE_TTL", "fleet_lease_ttl_s", _POSITIVE),
    ("REPRO_FLEET_HEARTBEAT", "fleet_heartbeat_s", _POSITIVE),
    ("REPRO_FLEET_AUTOSCALE", "fleet_autoscale", _parse_bool),
    ("REPRO_FLEET_MIN_WORKERS", "fleet_min_workers", _NON_NEGATIVE),
    ("REPRO_FLEET_MAX_WORKERS", "fleet_max_workers", _AT_LEAST_ONE),
    ("REPRO_SERVER_HOST", "server_host", str),
    (
        "REPRO_SERVER_PORT",
        "server_port",
        _parse_number(int, lambda v: 0 <= v <= 65535, "must be in [0, 65535]"),
    ),
    ("REPRO_SERVER_MAX_BODY_MB", "server_max_body_mb", _POSITIVE),
    ("REPRO_SERVER_TICKET_TTL", "server_ticket_ttl_s", _POSITIVE),
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
        The workload preset the service expects (``REPRO_PRESET``).  The
        preset itself is process-wide (:func:`repro.config.set_preset`):
        ``None`` (default) accepts whichever is active, and a
        :class:`~repro.service.CompilationService` given any other name
        refuses to start unless that preset is the active one.
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
    preset: str | None = None
    scheduler_state_path: str | None = None
    grape_batch: bool = True
    grape_batch_size: int = 16
    warm_start: bool = True
    warm_start_max_dist: float = 0.25
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
        via :func:`repro.config.env_config`).
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
        for env_name, field_name, parse in _ENV_FIELDS:
            raw = os.environ.get(env_name)
            if not raw:
                continue
            try:
                values[field_name] = parse(raw)
            except ValueError as exc:
                warnings.warn(f"ignoring {env_name}={raw!r} ({exc})", stacklevel=3)
                continue
            sources[field_name] = "env"

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

