"""Cross-call block reuse inside one long-lived ``CompilationService``.

A variational loop recompiles the same ansatz at every iteration.  The
service keeps its scheduler state, plan cache and pulse cache across
``compile`` calls, so iteration N+1 dispatches GRAPE only for blocks the
service has never seen.
"""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import PulseCache
from repro.perf import get_perf_registry
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


class CountingCache(PulseCache):
    """Records every key GRAPE actually computed (put) for."""

    def __init__(self):
        super().__init__()
        self.put_keys = []

    def put(self, key, entry, target=None):
        self.put_keys.append(key)
        super().put(key, entry, target=target)


def _ansatz() -> QuantumCircuit:
    """Two identical fixed entangler tiles plus one θ-dependent tile."""
    circuit = QuantumCircuit(6)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.rz(Parameter("theta"), 4)
    circuit.cx(4, 5)
    return circuit


@pytest.fixture
def service():
    with CompilationService(
        device=GmonDevice(line_topology(6)),
        settings=SETTINGS,
        hyperparameters=HYPER,
    ) as service:
        yield service


def _compile(service, circuit, values=None):
    return service.compile(
        CompileRequest(circuit, values, strategy="full-grape", max_block_width=2)
    ).compiled


class TestCrossCallReuse:
    def test_shared_fixed_blocks_grape_exactly_once_across_two_calls(
        self, service
    ):
        """The same ansatz at two parameter sets: each shared fixed block
        is dispatched to GRAPE exactly once across BOTH calls, asserted via
        scheduler counters and cache puts."""
        cache = service.cache = CountingCache()
        ansatz = _ansatz()
        first = _compile(service, ansatz, [0.3])
        second = _compile(service, ansatz, [1.1])

        sched1 = first.metadata["scheduler"]
        sched2 = second.metadata["scheduler"]
        # Call 1: the h+cx tile appears twice (translated) → one dispatch;
        # the tile carrying Rz(θ=0.3) is its own unitary → one dispatch.
        assert sched1["dispatched_tasks"] == 2
        assert sched1["deduped_blocks"] == 1
        assert sched1["reused_blocks"] == 0
        # Call 2: both h+cx occurrences reuse call 1's pulse; only the new
        # θ=1.1 tile dispatches.
        assert sched2["reused_blocks"] == 2
        assert sched2["dispatched_tasks"] == 1
        assert sched2["deduped_blocks"] == 0
        # GRAPE ran once per unique block across the service lifetime: the
        # shared tile once, plus one θ tile per call.
        assert len(cache.put_keys) == 3
        assert len(set(cache.put_keys)) == 3

    def test_identical_repeat_call_dispatches_nothing(self, service):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        _compile(service, circuit)
        repeat = _compile(service, circuit)
        scheduler = repeat.metadata["scheduler"]
        assert scheduler["dispatched_tasks"] == 0
        assert scheduler["reused_blocks"] == scheduler["total_blocks"]
        assert repeat.runtime_iterations == 0

    def test_reuse_reproduces_the_first_pulse(self, service):
        ansatz = _ansatz()
        first = _compile(service, ansatz, [0.2])
        second = _compile(service, ansatz, [0.2])
        assert second.pulse_duration_ns == pytest.approx(first.pulse_duration_ns)

    def test_perf_counter_records_cross_call_reuse(self, service):
        registry = get_perf_registry()
        before = registry.counter("scheduler.reused_blocks")
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        _compile(service, circuit)
        _compile(service, circuit)
        assert registry.counter("scheduler.reused_blocks") == before + 1

    def test_batch_mixes_batch_dedup_and_cross_call_reuse(self, service):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        requests = [
            CompileRequest(circuit, strategy="full-grape", max_block_width=2)
        ] * 2
        first = service.compile_batch(requests)
        results = service.compile_batch(requests)
        assert first[0].metadata["scheduler"]["dispatched_tasks"] == 1
        assert results[0].metadata["scheduler"]["reused_blocks"] == 2
        stats = service.stats()
        assert stats["requests"]["total"] == 4
        assert stats["scheduler"]["known_blocks"] == 1

    def test_clearing_state_keeps_the_pulse_cache(self, service):
        cache = service.cache = CountingCache()
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        _compile(service, circuit)
        service.scheduler_state.clear()
        assert len(service.scheduler_state) == 0
        result = _compile(service, circuit)
        # The scheduler dispatches again, but the pulse cache still hits:
        # no second GRAPE run.
        assert result.metadata["scheduler"]["reused_blocks"] == 0
        assert len(cache.put_keys) == 1


class TestSchedulerStateBound:
    def test_service_state_respects_bound_across_compiles(self, service):
        service.scheduler_state.max_entries = 1
        circuit_a = QuantumCircuit(2).h(0).cx(0, 1)
        circuit_b = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        _compile(service, circuit_a)
        _compile(service, circuit_b)
        assert len(service.scheduler_state) == 1
        # The evicted block recompiles through the cache, not the state.
        result = _compile(service, circuit_a)
        assert result.metadata["scheduler"]["reused_blocks"] == 0


class TestDeviceGrowth:
    def test_device_grows_with_wider_circuits(self):
        """Without a fixed device the service sizes a grid per request, so
        a wider circuit later in the run still compiles, while the dedup
        state carries over."""
        narrow = QuantumCircuit(2).h(0).cx(0, 1)
        wide = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        with CompilationService(
            settings=SETTINGS, hyperparameters=HYPER
        ) as service:
            assert service.device_for(narrow).num_qubits >= 2
            _compile(service, narrow)
            assert service.device_for(wide).num_qubits >= 4
            result = _compile(service, wide)
            assert len(service.scheduler_state) >= 1
        qubits = {tuple(s.qubits) for s in result.program.schedules}
        assert (2, 3) in qubits
