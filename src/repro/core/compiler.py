"""Shared machinery for pulse compilers.

:class:`BlockPulseCompiler` turns one bound block subcircuit into a pulse
schedule: it consults the pulse cache, runs the minimum-time GRAPE search,
and — crucially — falls back to concatenated lookup pulses whenever GRAPE
cannot beat the block's gate-based duration.  This fallback is what makes
full GRAPE and strict partial compilation *strictly better* than gate-based
compilation (paper sections 5.2 and 6).

Cache-missing blocks are *warm-started* rather than compiled cold: the
cache's approximate-match index (:meth:`repro.core.cache.PulseCache
.find_neighbor`) supplies the nearest cached pulse as a GRAPE seed, and
two-qubit blocks without a neighbor get an analytic seed from the KAK
decomposition (:mod:`repro.pulse.grape.seeding`).  A best-of guard keeps
seeding strictly safe: a seeded search that fails to converge falls back to
the cold search and keeps whichever pulse is better, so a bad seed can
never yield a worse pulse than a cold start — only spend extra iterations,
which the ``grape.warm_start.*`` counters make visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import critical_path_ns
from repro.core.cache import CacheEntry, PulseCache, default_pulse_cache
from repro.errors import CompilationError
from repro.perf import get_perf_registry
from repro.pipeline.executors import resolve_executor
from repro.pipeline.stages import lookup_program
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule, lookup_schedule
from repro.sim.unitary import circuit_unitary


@dataclass
class BlockCompileOutcome:
    """One block's pulse plus work accounting."""

    schedule: PulseSchedule
    duration_ns: float
    gate_based_ns: float
    iterations: int
    cache_hit: bool
    used_grape: bool
    fidelity: float


class BlockPulseCompiler:
    """Compiles bound subcircuits on device-qubit blocks into pulses."""

    def __init__(
        self,
        device: GmonDevice,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        cache: PulseCache | None = None,
        warm_start: bool | None = None,
        warm_start_max_dist: float | None = None,
    ):
        self.device = device
        self.settings = settings or GrapeSettings()
        self.hyperparameters = hyperparameters or GrapeHyperparameters()
        self.cache = cache if cache is not None else default_pulse_cache()
        # ``None`` defers to the environment (``repro.config.env_config``)
        # at search time; the service passes its own config values.
        self.warm_start = warm_start
        self.warm_start_max_dist = warm_start_max_dist

    def gate_based_schedules(self, circuit: QuantumCircuit) -> list:
        """Per-gate lookup pulses for ``circuit`` (the gate-based model)."""
        from repro.pipeline.stages import lookup_schedules

        return lookup_schedules(circuit)

    def task_key(
        self, subcircuit: QuantumCircuit | None, device_qubits: tuple
    ) -> tuple | None:
        """The dedup/cache identity of one block, or ``None`` if it has none.

        Two blocks with the same key — same phase-canonical target unitary
        and the same physical context (relative channel layout, time step,
        fidelity target) — compile to interchangeable pulses, so a batch
        scheduler may compile one and fan the result out to the others.
        Parametrized, empty, and zero-duration blocks return ``None``:
        they are either not compilable yet or too cheap to dedup.
        """
        if subcircuit is None or subcircuit.is_parameterized():
            return None
        if len(subcircuit) == 0 or critical_path_ns(subcircuit) <= 0:
            return None
        control_set = build_control_set(self.device, device_qubits)
        target = circuit_unitary(subcircuit)
        return self.cache.key(
            target,
            control_set,
            self.settings.resolved_dt(),
            self.settings.resolved_target(),
        )

    # -- outcome construction (one rulebook for serial and batched paths) --
    def _trivial_outcome(
        self, device_qubits: tuple, gate_ns: float
    ) -> BlockCompileOutcome:
        """Outcome for an empty or zero-duration block (no GRAPE, no cache)."""
        empty = lookup_schedule(device_qubits, max(gate_ns, 0.0) or 1e-9)
        return BlockCompileOutcome(
            schedule=empty,
            duration_ns=0.0,
            gate_based_ns=gate_ns,
            iterations=0,
            cache_hit=False,
            used_grape=False,
            fidelity=1.0,
        )

    def _cache_hit_outcome(
        self, device_qubits: tuple, gate_ns: float, cached: CacheEntry
    ) -> BlockCompileOutcome:
        """Outcome for a cached pulse, applying the strictly-not-worse rule."""
        usable = cached.converged and cached.duration_ns <= gate_ns + 1e-9
        if usable:
            schedule = PulseSchedule(
                qubits=tuple(device_qubits),
                dt_ns=cached.schedule.dt_ns,
                controls=cached.schedule.controls,
                channel_names=cached.schedule.channel_names,
                source="cache",
            )
            duration = cached.duration_ns
        else:
            # Same rule as the fresh path: a pulse that does not beat the
            # lookup table falls back to it.
            schedule = lookup_schedule(device_qubits, gate_ns, source="fallback")
            duration = gate_ns
        return BlockCompileOutcome(
            schedule=schedule,
            duration_ns=duration,
            gate_based_ns=gate_ns,
            iterations=0,
            cache_hit=True,
            used_grape=usable,
            fidelity=cached.fidelity,
        )

    def _fresh_outcome(
        self, device_qubits: tuple, gate_ns: float, key, result, target=None
    ) -> BlockCompileOutcome:
        """Cache + judge one fresh minimum-time search result."""
        self.cache.put(
            key,
            CacheEntry(
                schedule=result.schedule,
                duration_ns=result.duration_ns,
                fidelity=result.fidelity,
                converged=result.converged,
                iterations=result.total_iterations,
            ),
            target=target,
        )
        if result.converged and result.duration_ns <= gate_ns + 1e-9:
            schedule = PulseSchedule(
                qubits=tuple(device_qubits),
                dt_ns=result.schedule.dt_ns,
                controls=result.schedule.controls,
                channel_names=result.schedule.channel_names,
                source="grape",
            )
            return BlockCompileOutcome(
                schedule=schedule,
                duration_ns=result.duration_ns,
                gate_based_ns=gate_ns,
                iterations=result.total_iterations,
                cache_hit=False,
                used_grape=True,
                fidelity=result.fidelity,
            )
        # GRAPE could not beat the lookup table within budget: fall back, so
        # pulse compilation is never worse than gate-based compilation.
        return BlockCompileOutcome(
            schedule=lookup_schedule(device_qubits, gate_ns, source="fallback"),
            duration_ns=gate_ns,
            gate_based_ns=gate_ns,
            iterations=result.total_iterations,
            cache_hit=False,
            used_grape=False,
            fidelity=result.fidelity,
        )

    # -- warm-started minimum-time search ---------------------------------
    def _find_seed(
        self, key, target: np.ndarray, control_set, gate_ns: float
    ) -> PulseSchedule | None:
        """A warm-start seed for one cache-missing block, or ``None``.

        Preference order per the warm-start design: the nearest cached
        pulse within the configured distance threshold, then (two-qubit
        blocks only) the analytic KAK seed, then nothing — the caller runs
        a cold search.  Every branch is counted under ``grape.warm_start``.
        """
        from repro.config import env_config

        config = env_config()
        enabled = (
            config.warm_start if self.warm_start is None else self.warm_start
        )
        if not enabled:
            return None
        max_dist = (
            config.warm_start_max_dist
            if self.warm_start_max_dist is None
            else self.warm_start_max_dist
        )
        perf = get_perf_registry()
        perf.count("grape.warm_start.lookups")
        match = self.cache.find_neighbor(key, target, max_dist)
        if match is not None:
            perf.count("grape.warm_start.neighbor_seeds")
            donor = match.entry.schedule
            return PulseSchedule(
                qubits=control_set.qubits,
                dt_ns=donor.dt_ns,
                controls=donor.controls,
                channel_names=tuple(ch.name for ch in control_set.channels),
                source="neighbor-seed",
            )
        dt = self.settings.resolved_dt()
        steps = max(1, int(round(max(gate_ns, dt) / dt)))
        from repro.pulse.grape.seeding import kak_seed_schedule

        seed = kak_seed_schedule(control_set, target, steps, dt)
        if seed is not None:
            perf.count("grape.warm_start.kak_seeds")
            return seed
        perf.count("grape.warm_start.no_seed")
        return None

    def _seeded_search(
        self, control_set, target, gate_ns, hyper, seed: PulseSchedule
    ):
        """Minimum-time search from ``seed``, guarded best-of against cold.

        A converged seeded search is accepted outright — it met the same
        fidelity threshold a cold search would have.  Otherwise the cold
        search runs too and whichever result is better wins (convergence
        first, then final fidelity), with the loser's iterations merged
        into the returned result so latency accounting stays honest.
        """
        perf = get_perf_registry()
        dt = self.settings.resolved_dt()
        upper = max(gate_ns, dt)
        seeded = minimum_time_pulse(
            control_set,
            target,
            upper_bound_ns=upper,
            hyperparameters=hyper,
            settings=self.settings,
            warm_start=seed,
        )
        perf.count(
            "grape.warm_start.seeded_iterations", seeded.total_iterations
        )
        if seeded.converged:
            perf.count("grape.warm_start.accepted")
            return seeded
        cold = minimum_time_pulse(
            control_set,
            target,
            upper_bound_ns=upper,
            hyperparameters=hyper,
            settings=self.settings,
        )
        perf.count(
            "grape.warm_start.cold_rerun_iterations", cold.total_iterations
        )
        if cold.converged or cold.fidelity >= seeded.fidelity:
            perf.count("grape.warm_start.rejected")
            winner, loser = cold, seeded
        else:
            perf.count("grape.warm_start.accepted")
            winner, loser = seeded, cold
        return replace(
            winner,
            total_iterations=winner.total_iterations + loser.total_iterations,
            grape_calls=winner.grape_calls + loser.grape_calls,
            wall_time_s=winner.wall_time_s + loser.wall_time_s,
            probes=[*seeded.probes, *cold.probes],
        )

    def _search(self, control_set, target, gate_ns, hyper, key):
        """One block's minimum-time search, warm-started when a seed exists."""
        seed = self._find_seed(key, target, control_set, gate_ns)
        if seed is not None:
            return self._seeded_search(control_set, target, gate_ns, hyper, seed)
        dt = self.settings.resolved_dt()
        return minimum_time_pulse(
            control_set,
            target,
            upper_bound_ns=max(gate_ns, dt),
            hyperparameters=hyper,
            settings=self.settings,
        )

    def compile_block(
        self,
        subcircuit: QuantumCircuit,
        device_qubits: tuple,
        hyperparameters: GrapeHyperparameters | None = None,
    ) -> BlockCompileOutcome:
        """Produce the pulse for one block.

        Parameters
        ----------
        subcircuit:
            Bound circuit on local qubits ``0 … k-1``.
        device_qubits:
            The device qubits behind each local index (sorted ascending).
        hyperparameters:
            Optional per-block override (flexible partial compilation passes
            its tuned values here).
        """
        if subcircuit.is_parameterized():
            raise CompilationError("block must be bound before pulse compilation")
        gate_ns = critical_path_ns(subcircuit)
        if len(subcircuit) == 0 or gate_ns <= 0:
            return self._trivial_outcome(device_qubits, gate_ns)

        control_set = build_control_set(self.device, device_qubits)
        target = circuit_unitary(subcircuit)
        dt = self.settings.resolved_dt()
        fid_target = self.settings.resolved_target()
        key = self.cache.key(target, control_set, dt, fid_target)
        return self._compile_resolved(
            control_set, target, device_qubits, gate_ns, key, hyperparameters
        )

    def _compile_resolved(
        self,
        control_set,
        target: np.ndarray,
        device_qubits: tuple,
        gate_ns: float,
        key,
        hyperparameters: GrapeHyperparameters | None = None,
    ) -> BlockCompileOutcome:
        """Compile a block whose identity is already resolved.

        The shared tail of :meth:`compile_block` and :meth:`compile_job`:
        cache consultation, the warm-started minimum-time search, and the
        strictly-not-worse judgment, given the control set, target
        unitary, gate-based duration, and dedup key.
        """
        cached = self.cache.get(key)
        if cached is not None:
            # Heal the warm-start index: the hit proves this target is in
            # the cache, and only the caller still holds the unitary.
            self.cache.annotate_target(key, target)
            return self._cache_hit_outcome(device_qubits, gate_ns, cached)

        hyper = hyperparameters or self.hyperparameters
        result = self._search(control_set, target, gate_ns, hyper, key)
        return self._fresh_outcome(device_qubits, gate_ns, key, result, target)

    def make_job(
        self,
        subcircuit: QuantumCircuit,
        device_qubits: tuple,
        key: tuple | None = None,
        cache_dir: str | None = None,
    ):
        """Build the picklable :class:`~repro.pipeline.jobs.BlockJob` for
        one bound block, or ``None`` for a trivial (empty / zero-duration)
        block that needs no GRAPE.

        Deferred-to-runtime knobs are materialized here: preset-resolved
        GRAPE settings, the warm-start policy (the environment's when this
        compiler leaves it ``None``), and the preset name itself — so the
        job compiles identically in a process that never saw this
        configuration.
        ``key`` skips recomputing a dedup identity the caller already
        paid for (the batch scheduler always has one).
        """
        from repro.config import env_config, get_preset
        from repro.pipeline.jobs import BlockJob

        if subcircuit.is_parameterized():
            raise CompilationError("block must be bound before pulse compilation")
        gate_ns = critical_path_ns(subcircuit)
        if len(subcircuit) == 0 or gate_ns <= 0:
            return None
        control_set = build_control_set(self.device, device_qubits)
        target = circuit_unitary(subcircuit)
        dt = self.settings.resolved_dt()
        fid_target = self.settings.resolved_target()
        if key is None:
            key = self.cache.key(target, control_set, dt, fid_target)
        config = env_config()
        warm = config.warm_start if self.warm_start is None else self.warm_start
        max_dist = (
            config.warm_start_max_dist
            if self.warm_start_max_dist is None
            else self.warm_start_max_dist
        )
        return BlockJob(
            key=key,
            target=target,
            device_qubits=tuple(device_qubits),
            gate_based_ns=gate_ns,
            device=self.device,
            settings=replace(
                self.settings, dt_ns=dt, target_fidelity=fid_target
            ),
            hyperparameters=self.hyperparameters,
            warm_start=bool(warm),
            warm_start_max_dist=float(max_dist),
            preset=get_preset().name,
            cache_dir=cache_dir,
        )

    def compile_job(self, job) -> BlockCompileOutcome:
        """Compile one :class:`~repro.pipeline.jobs.BlockJob`.

        The job already carries the resolved identity (key, target,
        gate-based duration); only the control set is rebuilt from the
        device — channel objects are cheap and keep the job payload small.
        Bit-identical to :meth:`compile_block` on the job's source block.
        """
        control_set = build_control_set(self.device, job.device_qubits)
        return self._compile_resolved(
            control_set,
            job.target,
            job.device_qubits,
            job.gate_based_ns,
            job.key,
        )

    def compile_blocks_batched(
        self,
        blocks: list,
        hyperparameters: GrapeHyperparameters | None = None,
        max_group: int | None = None,
    ) -> tuple:
        """Compile many blocks at once, batching same-shape GRAPE searches.

        ``blocks`` is a list of ``(subcircuit, device_qubits)`` pairs.  Each
        block runs the exact same path as :meth:`compile_block` — trivial
        blocks, cache hits, and the strictly-not-worse judgment are
        per-block and unchanged — but cache misses are grouped by control
        shape ``(dim, n_controls)`` and each group's minimum-time searches
        run through the cross-block batched kernel
        (:func:`repro.pulse.grape.batched.minimum_time_pulse_batch`), which
        is bit-identical to the serial searches.  Singleton groups take the
        per-block kernel directly, and blocks with a warm-start seed
        (cached neighbor or analytic KAK — see :meth:`_find_seed`) run the
        per-block guarded search instead of batching: seeds are per-target,
        and a good seed saves more iterations than batching saves per
        iteration.

        Returns ``(outcomes, stats)`` with outcomes in input order and
        ``stats = {"batched_groups": ..., "batched_blocks": ...}``.
        """
        dt = self.settings.resolved_dt()
        fid_target = self.settings.resolved_target()
        hyper = hyperparameters or self.hyperparameters

        outcomes: list = [None] * len(blocks)
        cold: list = []  # (index, control_set, target, gate_ns, key)
        for i, (subcircuit, device_qubits) in enumerate(blocks):
            if subcircuit.is_parameterized():
                raise CompilationError(
                    "block must be bound before pulse compilation"
                )
            gate_ns = critical_path_ns(subcircuit)
            if len(subcircuit) == 0 or gate_ns <= 0:
                outcomes[i] = self._trivial_outcome(device_qubits, gate_ns)
                continue
            control_set = build_control_set(self.device, device_qubits)
            target = circuit_unitary(subcircuit)
            key = self.cache.key(target, control_set, dt, fid_target)
            cached = self.cache.get(key)
            if cached is not None:
                self.cache.annotate_target(key, target)
                outcomes[i] = self._cache_hit_outcome(
                    device_qubits, gate_ns, cached
                )
                continue
            cold.append((i, control_set, target, gate_ns, key))

        by_shape: dict = {}
        for entry in cold:
            control_set = entry[1]
            by_shape.setdefault(
                (control_set.dim, control_set.num_controls), []
            ).append(entry)

        stats = {"batched_groups": 0, "batched_blocks": 0}
        # Seeds come only from the pre-call cache state, never from pulses
        # this very call just wrote, so a batched compile produces the same
        # pulses as the equivalent per-block calls under a parallel
        # executor (see PulseCache.freeze_neighbors; nesting inside the
        # scheduler's own freeze is safe — the snapshot is depth-counted).
        self.cache.freeze_neighbors()
        try:
            self._compile_cold_groups(
                by_shape, blocks, outcomes, hyper, stats, max_group
            )
        finally:
            self.cache.thaw_neighbors()
        return outcomes, stats

    def _compile_cold_groups(
        self,
        by_shape: dict,
        blocks: list,
        outcomes: list,
        hyper,
        stats: dict,
        max_group: int | None,
    ) -> None:
        """Dispatch the cache-missing shape groups of a batched compile."""
        from repro.pulse.grape.batched import minimum_time_pulse_batch

        dt = self.settings.resolved_dt()
        for members in by_shape.values():
            # Warm starts are per-block (each seed is specific to one
            # target), so seeded members run the individual guarded search
            # and only the seedless remainder goes through the batched
            # kernel.  The trade is deliberate: a good seed saves far more
            # iterations than cross-block batching saves per iteration.
            pending = []
            for entry in members:
                i, control_set, target, gate_ns, key = entry
                seed = self._find_seed(key, target, control_set, gate_ns)
                if seed is None:
                    pending.append(entry)
                    continue
                result = self._seeded_search(
                    control_set, target, gate_ns, hyper, seed
                )
                outcomes[i] = self._fresh_outcome(
                    blocks[i][1], gate_ns, key, result, target
                )
            if not pending:
                continue
            if len(pending) == 1:
                i, control_set, target, gate_ns, key = pending[0]
                result = minimum_time_pulse(
                    control_set,
                    target,
                    upper_bound_ns=max(gate_ns, dt),
                    hyperparameters=hyper,
                    settings=self.settings,
                )
                outcomes[i] = self._fresh_outcome(
                    blocks[i][1], gate_ns, key, result, target
                )
                continue
            stats["batched_groups"] += 1
            stats["batched_blocks"] += len(pending)
            results = minimum_time_pulse_batch(
                [entry[1] for entry in pending],
                [entry[2] for entry in pending],
                [max(entry[3], dt) for entry in pending],
                hyperparameters=hyper,
                settings=self.settings,
                max_group=max_group,
            )
            for (i, _, target, gate_ns, key), result in zip(pending, results):
                outcomes[i] = self._fresh_outcome(
                    blocks[i][1], gate_ns, key, result, target
                )

    def compile_circuit_blocks(
        self, circuit: QuantumCircuit, max_width: int | None = None, executor=None
    ) -> tuple:
        """Aggregate ``circuit`` into blocks and compile each.

        A convenience wrapper over the pipeline's blocking + pulse stages.
        ``executor`` dispatches the independent per-block GRAPE searches
        (an executor name or :class:`~repro.pipeline.executors.BlockExecutor`;
        ``None`` uses the configured default).  Returns ``(outcomes, blocked)``
        with outcomes in block order regardless of executor.
        """
        from functools import partial

        from repro.pipeline.pipeline import CompilationPipeline
        from repro.pipeline.stages import BlockingStage, PulseStage
        from repro.pipeline.strategies import compile_fixed_block

        context = CompilationPipeline(
            [
                BlockingStage(max_width),
                PulseStage(
                    partial(compile_fixed_block, self),
                    executor=resolve_executor(executor),
                    block_compiler=self,
                ),
            ],
            name="blocks",
        ).run(circuit)
        return context.block_results, context.blocked[0]


def default_device_for(circuit: QuantumCircuit) -> GmonDevice:
    """The default gmon grid sized for ``circuit``."""
    return GmonDevice.grid_for(circuit.num_qubits)


def gate_based_program(circuit: QuantumCircuit):
    """The pure lookup-table pulse program for a bound circuit.

    Used both by the gate-based baseline and as the strictly-not-worse
    fallback of every GRAPE-based strategy: pulse blocks are atomic across
    their qubits, so a blocked program can occasionally lose a little
    scheduling slack relative to the gate-level ASAP schedule; whenever that
    overhead eats the GRAPE gains, compilers fall back to this program
    (the paper's no-delay blocking criterion, section 5.2).
    """
    return lookup_program(circuit)
