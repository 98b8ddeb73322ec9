"""Block-executor contracts: ordering, equivalence, and configuration."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core import FullGrapeCompiler, PulseCache
from repro.errors import PipelineError
from repro.pipeline import (
    ProcessPoolBlockExecutor,
    SerialExecutor,
    ThreadPoolBlockExecutor,
    resolve_executor,
)
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=200)


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _pin_cpus(monkeypatch, count: int) -> None:
    """Make the process's affinity mask hold ``count`` CPUs."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _tile_circuit(num_qubits: int = 4) -> QuantumCircuit:
    """Disjoint 2-qubit tiles — one independent GRAPE block each."""
    circuit = QuantumCircuit(num_qubits, name="tiles")
    for q in range(0, num_qubits - 1, 2):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(0.2 + 0.3 * q, q + 1)
    return circuit


def _compile(executor, num_qubits=4):
    compiler = FullGrapeCompiler(
        device=GmonDevice(line_topology(num_qubits)),
        settings=SETTINGS,
        hyperparameters=HYPER,
        max_block_width=2,
        cache=PulseCache(),
        executor=executor,
    )
    return compiler.compile(_tile_circuit(num_qubits))


class TestResolveExecutor:
    def test_names(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadPoolBlockExecutor)
        assert isinstance(resolve_executor("process"), ProcessPoolBlockExecutor)

    def test_instance_passthrough(self):
        executor = ThreadPoolBlockExecutor(max_workers=3)
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(PipelineError):
            resolve_executor("gpu")

    def test_default_follows_config(self, monkeypatch):
        """``None`` resolves to the environment's executor and workers."""
        import repro.config
        from repro.service.config import ServiceConfig

        monkeypatch.setattr(
            repro.config,
            "_env_config",
            ServiceConfig(executor="thread", max_workers=2),
        )
        resolved = resolve_executor(None)
        assert isinstance(resolved, ThreadPoolBlockExecutor)
        assert resolved.max_workers == 2
        assert ThreadPoolBlockExecutor().max_workers == 2

    def test_explicit_workers_override(self):
        assert ThreadPoolBlockExecutor(max_workers=5).max_workers == 5


class TestAutoExecutor:
    """``auto`` resolves per host: inline + batched on small machines,
    delegated pool maps on large ones."""

    def test_resolves_to_auto_executor(self):
        from repro.pipeline.executors import AutoExecutor

        executor = resolve_executor("auto")
        assert isinstance(executor, AutoExecutor)
        assert executor.name == "auto"

    def test_auto_is_a_registered_choice_and_the_default(self):
        from repro.config import EXECUTOR_CHOICES
        from repro.service.config import ServiceConfig

        assert "auto" in EXECUTOR_CHOICES
        assert ServiceConfig().executor == "auto"

    def test_policy_flags_follow_cpu_count(self, monkeypatch):
        import repro.pipeline.executors as executors_module

        _pin_cpus(monkeypatch, 1)
        small = executors_module.AutoExecutor()
        assert small.prefers_inline is True
        assert small.prefers_batched is True

        _pin_cpus(monkeypatch, 8)
        large = executors_module.AutoExecutor()
        assert large.prefers_inline is False
        assert large.prefers_batched is False

    def test_inline_mode_runs_in_calling_thread(self, monkeypatch):
        import threading

        import repro.pipeline.executors as executors_module

        _pin_cpus(monkeypatch, 2)
        executor = executors_module.AutoExecutor()
        seen = []
        result = executor.map(
            lambda x: seen.append(threading.current_thread()) or x * x,
            range(5),
        )
        assert result == [x * x for x in range(5)]
        assert all(t is threading.main_thread() for t in seen)
        assert executor.inline_maps == 1
        assert executor.delegated_maps == 0

    def test_many_core_host_delegates_large_maps(self, monkeypatch):
        import repro.pipeline.executors as executors_module

        _pin_cpus(monkeypatch, 8)
        executor = executors_module.AutoExecutor(max_workers=2)
        assert executor.map(_square, range(6)) == [x * x for x in range(6)]
        assert executor.delegated_maps == 1
        # Tiny maps stay inline even on a big host — pool overhead loses.
        assert executor.map(_square, range(2)) == [0, 1]
        assert executor.inline_maps == 1

    def test_describe_reports_mode(self):
        info = resolve_executor("auto").describe()
        assert info["executor"] == "auto"
        assert info["mode"] in ("inline", "thread-persistent")
        assert info["cpu_count"] >= 1

    def test_serial_prefers_batched_pools_do_not(self):
        from repro.pipeline.executors import (
            PersistentThreadPoolBlockExecutor,
        )

        assert SerialExecutor().prefers_batched is True
        assert ThreadPoolBlockExecutor(max_workers=2).prefers_batched is False
        pool = PersistentThreadPoolBlockExecutor(max_workers=2)
        try:
            assert pool.prefers_batched is False
        finally:
            pool.close()

    def test_auto_compile_matches_serial(self):
        serial = _compile("serial")
        auto = _compile("auto")
        assert auto.blocks_compiled == serial.blocks_compiled
        assert np.isclose(auto.pulse_duration_ns, serial.pulse_duration_ns)
        for ours, theirs in zip(
            auto.program.schedules, serial.program.schedules
        ):
            np.testing.assert_allclose(ours.controls, theirs.controls)


class TestAutoExecutorDemandGrowth:
    """Without a pinned ``max_workers`` the delegated pool is sized from
    observed map sizes, doubling toward ``min(cpu_count, largest map)``."""

    def _executor(self, monkeypatch, cores: int, max_workers=None):
        import repro.pipeline.executors as executors_module

        _pin_cpus(monkeypatch, cores)
        return executors_module.AutoExecutor(max_workers)

    def test_first_delegation_grants_the_initial_pool(self, monkeypatch):
        executor = self._executor(monkeypatch, 16)
        assert executor.granted_workers is None
        assert executor.map(_square, range(4)) == [x * x for x in range(4)]
        assert executor.granted_workers == executor.INITIAL_GRANT
        assert executor.largest_map == 4
        assert executor.pool_growths == 0

    def test_grant_doubles_as_bigger_maps_arrive(self, monkeypatch):
        executor = self._executor(monkeypatch, 16)
        executor.map(_square, range(4))   # grant 4
        executor.map(_square, range(9))   # 4 → 8 → 16? target min(16, 9)=9
        assert executor.granted_workers == 16
        assert executor.pool_growths == 2
        assert executor.largest_map == 9
        # Smaller maps afterwards never shrink the grant.
        executor.map(_square, range(5))
        assert executor.granted_workers == 16
        assert executor.pool_growths == 2

    def test_grant_is_capped_by_cpu_count(self, monkeypatch):
        executor = self._executor(monkeypatch, 6)
        executor.map(_square, range(40))
        assert executor.granted_workers == 6
        assert executor.largest_map == 40

    def test_pinned_max_workers_never_grows(self, monkeypatch):
        executor = self._executor(monkeypatch, 16, max_workers=3)
        executor.map(_square, range(12))
        executor.map(_square, range(12))
        assert executor.granted_workers == 3
        assert executor.pool_growths == 0

    def test_growth_is_visible_in_describe(self, monkeypatch):
        executor = self._executor(monkeypatch, 8)
        executor.map(_square, range(8))
        info = executor.describe()
        assert info["granted_workers"] == 8
        assert info["largest_map"] == 8
        assert info["pool_growths"] == 1


class TestMapContract:
    @pytest.mark.parametrize("executor_name", ["serial", "thread", "process"])
    def test_order_preserved(self, executor_name):
        executor = resolve_executor(executor_name, max_workers=2)
        assert executor.map(_square, range(7)) == [x * x for x in range(7)]

    def test_empty_items(self):
        for name in ("serial", "thread", "process"):
            assert resolve_executor(name).map(_square, []) == []

    def test_describe_reports_workers(self):
        info = ThreadPoolBlockExecutor(max_workers=4).describe()
        assert info == {"executor": "thread", "max_workers": 4}
        assert SerialExecutor().describe() == {"executor": "serial"}


class TestExecutorEquivalence:
    """Serial and parallel block compilation must be indistinguishable."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return _compile("serial")

    def test_thread_matches_serial(self, serial_result):
        threaded = _compile(ThreadPoolBlockExecutor(max_workers=2))
        assert threaded.blocks_compiled == serial_result.blocks_compiled
        assert np.isclose(
            threaded.pulse_duration_ns, serial_result.pulse_duration_ns
        )
        for ours, theirs in zip(
            threaded.program.schedules, serial_result.program.schedules
        ):
            assert ours.qubits == theirs.qubits
            np.testing.assert_allclose(ours.controls, theirs.controls)

    def test_process_matches_serial(self, serial_result):
        pooled = _compile(ProcessPoolBlockExecutor(max_workers=2))
        assert pooled.blocks_compiled == serial_result.blocks_compiled
        assert np.isclose(pooled.pulse_duration_ns, serial_result.pulse_duration_ns)
        for ours, theirs in zip(
            pooled.program.schedules, serial_result.program.schedules
        ):
            np.testing.assert_allclose(ours.controls, theirs.controls)

    def test_executor_recorded_in_metadata(self):
        result = _compile(ThreadPoolBlockExecutor(max_workers=2))
        assert result.metadata["executor"] == {"executor": "thread", "max_workers": 2}


class TestBlockCompilerConvenience:
    def test_compile_circuit_blocks_routes_through_pipeline(self):
        from repro.core.compiler import BlockPulseCompiler

        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        circuit = _tile_circuit(4)
        outcomes, blocked = compiler.compile_circuit_blocks(
            circuit, max_width=2, executor=ThreadPoolBlockExecutor(max_workers=2)
        )
        assert len(outcomes) == len(blocked.blocks) == 2
        assert all(o.schedule is not None for o in outcomes)
        serial_outcomes, _ = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        ).compile_circuit_blocks(circuit, max_width=2)
        for ours, theirs in zip(outcomes, serial_outcomes):
            assert np.isclose(ours.duration_ns, theirs.duration_ns)


class TestPartialCompilerExecutors:
    """The partial-compilation precompute phases parallelize identically."""

    def test_strict_precompile_thread_matches_serial(self):
        from repro.circuits.parameters import Parameter
        from repro.core import StrictPartialCompiler

        theta = Parameter("theta_0")
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        qc.rz(theta, 1)
        qc.cx(0, 1)
        device = GmonDevice(line_topology(2))

        def build(executor):
            return StrictPartialCompiler.precompile(
                qc,
                device=device,
                settings=SETTINGS,
                hyperparameters=HYPER,
                max_block_width=2,
                cache=PulseCache(),
                executor=executor,
            )

        serial = build("serial")
        threaded = build(ThreadPoolBlockExecutor(max_workers=2))
        assert threaded.report.executor == "thread"
        assert serial.report.blocks_precompiled == threaded.report.blocks_precompiled
        assert np.isclose(
            serial.compile([0.4]).pulse_duration_ns,
            threaded.compile([0.4]).pulse_duration_ns,
        )
