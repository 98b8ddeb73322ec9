"""Persistent-pool executor contracts: amortization, equivalence, lifecycle."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.config import EXECUTOR_CHOICES
from repro.core import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.perf import get_perf_registry
from repro.pipeline import (
    PersistentProcessPoolBlockExecutor,
    PersistentThreadPoolBlockExecutor,
    resolve_executor,
)
from repro.pipeline.strategies import full_grape_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=150)

PERSISTENT_CLASSES = [
    PersistentThreadPoolBlockExecutor,
    PersistentProcessPoolBlockExecutor,
]


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _cube(x):
    return x * x * x


def _tile_circuit(num_qubits: int = 4) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name="tiles")
    for q in range(0, num_qubits - 1, 2):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(0.2 + 0.3 * q, q + 1)
    return circuit


def _compile(executor, num_qubits=4):
    """One full-GRAPE pipeline run of the tile circuit on ``executor``."""
    block_compiler = BlockPulseCompiler(
        GmonDevice(line_topology(num_qubits)), SETTINGS, HYPER, PulseCache()
    )
    context = full_grape_pipeline(block_compiler, 2, executor).run(
        _tile_circuit(num_qubits)
    )
    return SimpleNamespace(
        program=context.program,
        pulse_duration_ns=context.program.duration_ns,
        blocks_compiled=len(context.block_results),
        metadata={"executor": context.executor_info},
    )


class TestResolve:
    def test_choices_registered(self):
        assert "thread-persistent" in EXECUTOR_CHOICES
        assert "process-persistent" in EXECUTOR_CHOICES

    def test_names_resolve(self):
        thread = resolve_executor("thread-persistent", 2)
        process = resolve_executor("process-persistent", 2)
        try:
            assert isinstance(thread, PersistentThreadPoolBlockExecutor)
            assert isinstance(process, PersistentProcessPoolBlockExecutor)
            assert thread.max_workers == process.max_workers == 2
        finally:
            thread.close()
            process.close()

    def test_named_resolution_shares_one_instance(self):
        """Compilers re-resolve specs per compile; names must alias one pool.

        Without this, ``REPRO_EXECUTOR=process-persistent`` would build a
        fresh (and never-closed) pool every variational iteration.
        """
        first = resolve_executor("thread-persistent", 2)
        second = resolve_executor("thread-persistent", 2)
        try:
            assert first is second
            # A different worker count is a different shared pool.
            other = resolve_executor("thread-persistent", 3)
            assert other is not first
            other.close()
        finally:
            first.close()

    def test_shared_pool_amortizes_across_named_compiles(self):
        """Two compiles resolving by name reuse the same warm pool.

        Resolved with default workers, because that is the key compilers
        hit when handed a bare name / ``REPRO_EXECUTOR`` value.
        """
        executor = resolve_executor("thread-persistent")
        pools_before = executor.pools_created
        try:
            _compile("thread-persistent")
            _compile("thread-persistent")
            assert resolve_executor("thread-persistent") is executor
            assert executor.pools_created == pools_before + 1
        finally:
            executor.close()

    def test_shutdown_helper_closes_shared_pools(self):
        from repro.pipeline.executors import shutdown_persistent_executors

        executor = resolve_executor("thread-persistent", 2)
        executor.map(_square, range(4))
        assert executor._pool is not None
        shutdown_persistent_executors()
        assert executor._pool is None
        # Shared instances revive lazily after a shutdown.
        assert executor.map(_square, range(3)) == [0, 1, 4]
        executor.close()


class TestMapContract:
    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_order_preserved(self, cls):
        with cls(max_workers=2) as executor:
            assert executor.map(_square, range(11)) == [x * x for x in range(11)]

    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_empty_and_singleton_run_inline(self, cls):
        with cls(max_workers=2) as executor:
            assert executor.map(_square, []) == []
            assert executor.map(_square, [3]) == [9]
            # Inline fast path never needed a pool.
            assert executor.pools_created == 0

    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_different_functions_share_one_pool(self, cls):
        with cls(max_workers=2) as executor:
            assert executor.map(_square, range(5)) == [0, 1, 4, 9, 16]
            assert executor.map(_cube, range(4)) == [0, 1, 8, 27]
            assert executor.pools_created == 1


class TestAmortization:
    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_one_pool_across_many_maps(self, cls):
        with cls(max_workers=2) as executor:
            for _ in range(6):
                executor.map(_square, range(7))
            assert executor.pools_created == 1
            assert executor.map_calls == 6
            info = executor.describe()
            assert info["pools_created"] == 1
            assert info["map_calls"] == 6

    def test_pool_creation_hits_perf_registry(self):
        registry = get_perf_registry()
        name = "executor.thread-persistent.pools_created"
        before = registry.counter(name)
        with PersistentThreadPoolBlockExecutor(max_workers=2) as executor:
            executor.map(_square, range(4))
            executor.map(_square, range(4))
        assert registry.counter(name) == before + 1


class TestLifecycle:
    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_close_then_reuse_recreates_pool(self, cls):
        executor = cls(max_workers=2)
        try:
            executor.map(_square, range(4))
            executor.close()
            assert executor.map(_square, range(4)) == [0, 1, 4, 9]
            assert executor.pools_created == 2
        finally:
            executor.close()

    @pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
    def test_close_is_idempotent(self, cls):
        executor = cls(max_workers=2)
        executor.map(_square, range(4))
        executor.close()
        executor.close()

    def test_repeated_shutdown_helper_is_idempotent(self):
        """Test teardown followed by the atexit hook (or any double call)
        must not raise — the second sweep finds already-closed pools."""
        from repro.pipeline.executors import shutdown_persistent_executors

        executor = resolve_executor("thread-persistent", 2)
        executor.map(_square, range(4))
        shutdown_persistent_executors()
        shutdown_persistent_executors()  # the atexit-race double call
        assert executor._pool is None

    def test_shutdown_helper_survives_a_failing_pool(self):
        """One pool whose shutdown raises must not keep the sweep from
        closing the remaining pools."""
        from repro.pipeline import executors as executors_module

        class ExplodingPool:
            def shutdown(self, wait=True):
                raise RuntimeError("cannot schedule new futures after shutdown")

        bad = PersistentThreadPoolBlockExecutor(max_workers=2)
        bad._pool = ExplodingPool()
        good = PersistentThreadPoolBlockExecutor(max_workers=2)
        good.map(_square, range(4))
        assert good._pool is not None
        with executors_module._persistent_registry_lock:
            saved = dict(executors_module._persistent_executors)
            executors_module._persistent_executors.clear()
            executors_module._persistent_executors[("bad", 2)] = bad
            executors_module._persistent_executors[("good", 2)] = good
        try:
            executors_module.shutdown_persistent_executors()
            assert bad._pool is None
            assert good._pool is None
        finally:
            with executors_module._persistent_registry_lock:
                executors_module._persistent_executors.clear()
                executors_module._persistent_executors.update(saved)

    def test_pickling_drops_live_pool(self):
        executor = PersistentProcessPoolBlockExecutor(max_workers=2)
        try:
            executor.map(_square, range(4))
            clone = pickle.loads(pickle.dumps(executor))
            assert clone._pool is None
            assert clone.map(_square, range(3)) == [0, 1, 4]
            clone.close()
        finally:
            executor.close()


class TestCompilationEquivalence:
    """The persistent pool must be invisible in the compiled output."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return _compile("serial")

    def test_process_persistent_bit_identical_to_serial(self, serial_result):
        with PersistentProcessPoolBlockExecutor(max_workers=2) as executor:
            pooled = _compile(executor)
            assert executor.pools_created == 1
        assert pooled.blocks_compiled == serial_result.blocks_compiled
        assert pooled.pulse_duration_ns == serial_result.pulse_duration_ns
        for ours, theirs in zip(
            pooled.program.schedules, serial_result.program.schedules
        ):
            assert ours.qubits == theirs.qubits
            # Bit-identical, not merely allclose: same kernel, same seeds.
            assert np.array_equal(ours.controls, theirs.controls)

    def test_thread_persistent_bit_identical_to_serial(self, serial_result):
        with PersistentThreadPoolBlockExecutor(max_workers=2) as executor:
            pooled = _compile(executor)
        for ours, theirs in zip(
            pooled.program.schedules, serial_result.program.schedules
        ):
            assert np.array_equal(ours.controls, theirs.controls)

    def test_executor_telemetry_in_result_metadata(self, serial_result):
        with PersistentProcessPoolBlockExecutor(max_workers=2) as executor:
            pooled = _compile(executor)
        info = pooled.metadata["executor"]
        assert info["executor"] == "process-persistent"
        assert info["pools_created"] == 1
        assert info["map_calls"] >= 1
