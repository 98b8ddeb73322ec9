"""Global configuration for the reproduction.

The paper's experiments consumed over 200,000 CPU-core-hours; this
reproduction must run on a laptop.  The :class:`Preset` mechanism scales the
GRAPE workload (time resolution, iteration budget, block width) while keeping
the algorithms identical.  Every knob the presets control is also exposed as
an explicit argument on the relevant API, so presets are a convenience, not a
hidden dependency.

Presets
-------
``ci``
    Default.  Coarse 0.2 ns time steps, modest iteration budgets, 2-3 qubit
    blocks.  The full benchmark suite completes in minutes.
``paper``
    The paper's settings: 0.05 ns steps, 99.9 % fidelity target, 4-qubit
    blocks, generous iteration budgets.  Hours of compute.

Select a preset with the ``REPRO_PRESET`` environment variable or
:func:`set_preset`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.service.config import (  # re-exported for backwards compatibility
    CACHE_SHARD_CHOICES,
    EXECUTOR_CHOICES,
    ServiceConfig,
)

#: Basis-gate pulse durations in nanoseconds (paper Table 1).  Gate-based
#: compilation runtimes throughout the library are indexed to these values.
GATE_DURATIONS_NS = {
    "rz": 0.4,
    "rx": 2.5,
    "ry": 2.9,  # Rz(pi/2)-Rx(theta)-Rz(-pi/2): 0.4 + 2.5 (Rz pair merged once scheduled)
    "h": 1.4,
    "x": 2.5,
    "y": 2.9,
    "z": 0.4,
    "s": 0.4,
    "sdg": 0.4,
    "t": 0.4,
    "tdg": 0.4,
    "cx": 3.8,
    "cz": 3.8,
    "swap": 7.4,
    "iswap": 5.0,
    "rzz": 4.6,  # CX-Rz-CX with the Rz absorbed into the echo
    "measure": 0.0,
    "barrier": 0.0,
    "id": 0.0,
}

#: GRAPE convergence target used by the paper: 99.9 % gate fidelity.
TARGET_FIDELITY = 0.999

#: Precision of the binary search for minimum pulse time (paper section 5.3).
TIME_SEARCH_PRECISION_NS = 0.3


@dataclass(frozen=True)
class Preset:
    """A bundle of workload-scaling knobs for GRAPE-heavy code paths.

    Attributes
    ----------
    name:
        Preset identifier (``"ci"`` or ``"paper"``).
    dt_ns:
        Width of each piecewise-constant control slice, in nanoseconds.
    max_iterations:
        ADAM iteration budget per GRAPE run.
    max_block_qubits:
        Maximum width of a GRAPE block produced by circuit aggregation.
    target_fidelity:
        Fidelity at which a GRAPE run is declared converged.
    time_search_precision_ns:
        Binary-search precision for the minimum-time search.
    """

    name: str
    dt_ns: float
    max_iterations: int
    max_block_qubits: int
    target_fidelity: float
    time_search_precision_ns: float


_PRESETS = {
    "ci": Preset(
        name="ci",
        dt_ns=0.2,
        max_iterations=300,
        max_block_qubits=3,
        target_fidelity=0.995,
        time_search_precision_ns=0.5,
    ),
    "paper": Preset(
        name="paper",
        dt_ns=0.05,
        max_iterations=3000,
        max_block_qubits=4,
        target_fidelity=TARGET_FIDELITY,
        time_search_precision_ns=TIME_SEARCH_PRECISION_NS,
    ),
}

# All REPRO_* environment reading routes through ServiceConfig.from_env();
# one import-time resolution seeds both the preset and the pipeline config.
_env_config = ServiceConfig.from_env()

_active_preset_name = _env_config.preset


def available_presets() -> tuple:
    """Return the names of all registered presets."""
    return tuple(sorted(_PRESETS))


def get_preset(name: str | None = None) -> Preset:
    """Return the preset called ``name``, or the active preset if ``None``."""
    key = _active_preset_name if name is None else name
    try:
        return _PRESETS[key]
    except KeyError:
        raise ReproError(
            f"unknown preset {key!r}; available: {available_presets()}"
        ) from None


def set_preset(name: str) -> Preset:
    """Make ``name`` the active preset and return it."""
    global _active_preset_name
    preset = get_preset(name)
    _active_preset_name = preset.name
    return preset


@dataclass(frozen=True)
class PipelineConfig:
    """Execution settings for the :mod:`repro.pipeline` subsystem.

    Attributes
    ----------
    executor:
        How independent per-block GRAPE searches are dispatched:
        ``"auto"`` (default) picks per host — inline execution plus
        cross-block batched GRAPE on 1–2 CPU machines, the shared thread
        pool for large maps elsewhere — or force ``"serial"``,
        ``"thread"`` (ThreadPoolExecutor), ``"process"``
        (ProcessPoolExecutor; pair it with ``cache_dir`` so worker results
        persist across processes), or the ``"thread-persistent"`` /
        ``"process-persistent"`` variants that amortize one long-lived
        pool across every map of a pipeline run.
    max_workers:
        Worker count for the parallel executors; ``None`` means the CPUs
        the process may run on (``len(os.sched_getaffinity(0))``).
    cache_dir:
        Directory for the persistent pulse cache.  ``None`` keeps the cache
        purely in memory (the seed behavior); a path makes every GRAPE
        result durable across processes and sessions.
    cache_shards:
        Shard fan-out of the on-disk pulse library (``REPRO_CACHE_SHARDS``).
        Must be a whole hex-prefix count — 16, 256, or 4096 — because
        entries shard by the leading characters of their unitary
        fingerprint.  Only consulted when a *new* library is created; an
        existing directory keeps the layout recorded in its
        ``library.json``.
    cache_budget_mb:
        Default size budget for :meth:`repro.library.PulseLibrary.gc`
        (``REPRO_CACHE_BUDGET_MB``).  ``None`` means unbounded: ``gc`` only
        reconciles the index and never evicts.
    prefetch:
        Manifest-aware shard prefetch for the on-disk pulse library
        (``REPRO_PREFETCH``).  When enabled, the first lookup touching a
        shard bulk-loads every manifest-listed entry into memory, so
        long-lived sessions streaming over a warm library pay one
        sequential sweep per shard instead of one file open per lookup.
        Off by default (the seed behavior).
    grape_batch:
        Whether the batch scheduler may stack same-shape cold blocks into
        the cross-block batched GRAPE kernel when the executor runs tasks
        inline (``REPRO_GRAPE_BATCH``).  Bit-identical results either way.
    grape_batch_size:
        Cap on blocks per batched GRAPE group (``REPRO_GRAPE_BATCH_SIZE``).
    warm_start:
        Whether cache-missing blocks warm-start GRAPE from the nearest
        cached pulse, or from the analytic KAK seed for seedless
        two-qubit blocks (``REPRO_WARM_START``).  Guarded best-of against
        the cold start, so disabling it only changes iteration counts.
    warm_start_max_dist:
        Neighbor-acceptance threshold for approximate-match retrieval
        (``REPRO_WARM_START_MAX_DIST``), a phase-invariant trace distance
        in ``(0, 1]``.
    scan_block:
        Fixed chunk length for the blocked propagator scan
        (``REPRO_SCAN_BLOCK``); ``None`` keeps the ``≈√n_steps``
        auto heuristic of :func:`repro.linalg.scan.scan_block_size`.
    """

    executor: str = "auto"
    max_workers: int | None = None
    cache_dir: str | None = None
    cache_shards: int = 16
    cache_budget_mb: float | None = None
    prefetch: bool = False
    grape_batch: bool = True
    grape_batch_size: int = 16
    warm_start: bool = True
    warm_start_max_dist: float = 0.25
    scan_block: int | None = None

    def __post_init__(self):
        if self.executor not in EXECUTOR_CHOICES:
            raise ReproError(
                f"unknown executor {self.executor!r}; available: {EXECUTOR_CHOICES}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {self.max_workers}")
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


def _pipeline_config_of(service_config: ServiceConfig) -> PipelineConfig:
    """Project the pipeline-relevant fields out of a service config."""
    return PipelineConfig(
        executor=service_config.executor,
        max_workers=service_config.max_workers,
        cache_dir=service_config.cache_dir,
        cache_shards=service_config.cache_shards,
        cache_budget_mb=service_config.cache_budget_mb,
        prefetch=service_config.prefetch,
        grape_batch=service_config.grape_batch,
        grape_batch_size=service_config.grape_batch_size,
        warm_start=service_config.warm_start,
        warm_start_max_dist=service_config.warm_start_max_dist,
        scan_block=service_config.scan_block,
    )


def _pipeline_config_from_env() -> PipelineConfig:
    """Read pipeline settings from the environment, tolerantly.

    A compatibility wrapper over :meth:`ServiceConfig.from_env` — the one
    supported env-reading path — kept because it predates the service
    config.  Malformed values fall back to defaults with a warning instead
    of raising (this used to run at import time and still must not make
    ``import repro`` crash).
    """
    return _pipeline_config_of(ServiceConfig.from_env())


_pipeline_config = _pipeline_config_of(_env_config)

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()


def get_pipeline_config() -> PipelineConfig:
    """The active pipeline execution settings."""
    return _pipeline_config


def set_pipeline_config(
    executor=_UNSET,
    max_workers=_UNSET,
    cache_dir=_UNSET,
    cache_shards=_UNSET,
    cache_budget_mb=_UNSET,
    prefetch=_UNSET,
    grape_batch=_UNSET,
    grape_batch_size=_UNSET,
    warm_start=_UNSET,
    warm_start_max_dist=_UNSET,
    scan_block=_UNSET,
) -> PipelineConfig:
    """Update the active pipeline settings (unpassed fields keep their value)."""
    global _pipeline_config
    current = _pipeline_config
    _pipeline_config = PipelineConfig(
        executor=current.executor if executor is _UNSET else executor,
        max_workers=current.max_workers if max_workers is _UNSET else max_workers,
        cache_dir=current.cache_dir if cache_dir is _UNSET else cache_dir,
        cache_shards=current.cache_shards if cache_shards is _UNSET else cache_shards,
        cache_budget_mb=(
            current.cache_budget_mb if cache_budget_mb is _UNSET else cache_budget_mb
        ),
        prefetch=current.prefetch if prefetch is _UNSET else prefetch,
        grape_batch=current.grape_batch if grape_batch is _UNSET else grape_batch,
        grape_batch_size=(
            current.grape_batch_size
            if grape_batch_size is _UNSET
            else grape_batch_size
        ),
        warm_start=current.warm_start if warm_start is _UNSET else warm_start,
        warm_start_max_dist=(
            current.warm_start_max_dist
            if warm_start_max_dist is _UNSET
            else warm_start_max_dist
        ),
        scan_block=current.scan_block if scan_block is _UNSET else scan_block,
    )
    return _pipeline_config
