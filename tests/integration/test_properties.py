"""Cross-module property-based tests.

Each property here spans at least two subsystems — the invariants a
downstream user relies on when composing the library: transpilation
preserves semantics, simulators agree with each other, serialization is
lossless, routing composes with scheduling.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.circuits.qasm import from_qasm, to_qasm
from repro.linalg.unitaries import unitaries_equal_up_to_phase
from repro.sim.statevector import simulate
from repro.sim.unitary import circuit_unitary
from repro.transpile import transpile
from repro.transpile.basis import BASIS_GATES, decompose_to_basis
from repro.transpile.optimize import optimize_circuit
from repro.transpile.schedule import asap_schedule

MAX_QUBITS = 4

_GATE_POOL = (
    "h", "x", "y", "z", "s", "sdg", "t", "tdg",
    "rx", "ry", "rz", "cx", "cz", "swap", "iswap", "rzz",
)


def _random_circuit(seed: int, num_qubits: int, num_gates: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        name = _GATE_POOL[int(rng.integers(len(_GATE_POOL)))]
        if name in ("cx", "cz", "swap", "iswap", "rzz") and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            if name == "rzz":
                circuit.rzz(float(rng.uniform(-3, 3)), int(a), int(b))
            else:
                getattr(circuit, name)(int(a), int(b))
        elif name in ("rx", "ry", "rz"):
            getattr(circuit, name)(float(rng.uniform(-3, 3)), int(rng.integers(num_qubits)))
        elif name not in ("cx", "cz", "swap", "iswap", "rzz"):
            getattr(circuit, name)(int(rng.integers(num_qubits)))
    return circuit


circuit_seeds = st.integers(min_value=0, max_value=100_000)
widths = st.integers(min_value=1, max_value=MAX_QUBITS)


@settings(max_examples=40, deadline=None)
@given(circuit_seeds, widths)
def test_basis_decomposition_preserves_unitary(seed, width):
    """transpile/basis x sim: decomposition never changes the semantics."""
    circuit = _random_circuit(seed, width, 12)
    decomposed = decompose_to_basis(circuit)
    assert all(inst.gate.name in BASIS_GATES for inst in decomposed)
    assert unitaries_equal_up_to_phase(
        circuit_unitary(decomposed), circuit_unitary(circuit), atol=1e-7
    )


@settings(max_examples=40, deadline=None)
@given(circuit_seeds, widths)
def test_optimizer_preserves_unitary(seed, width):
    """transpile/optimize x sim: peephole passes are semantics-preserving."""
    circuit = decompose_to_basis(_random_circuit(seed, width, 14))
    optimized = optimize_circuit(circuit)
    assert len(optimized) <= len(circuit)
    assert unitaries_equal_up_to_phase(
        circuit_unitary(optimized), circuit_unitary(circuit), atol=1e-7
    )


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, widths)
def test_full_pipeline_preserves_unitary(seed, width):
    """transpile (full default pipeline) x sim, without routing."""
    circuit = _random_circuit(seed, width, 10)
    out = transpile(circuit)
    assert unitaries_equal_up_to_phase(
        circuit_unitary(out), circuit_unitary(circuit), atol=1e-7
    )


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, st.integers(min_value=2, max_value=MAX_QUBITS))
def test_statevector_agrees_with_unitary_simulator(seed, width):
    """sim/statevector x sim/unitary on the |0…0⟩ state."""
    circuit = _random_circuit(seed, width, 10)
    state = simulate(circuit).data
    column = circuit_unitary(circuit)[:, 0]
    fidelity = abs(np.vdot(column, state))
    assert fidelity == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, widths)
def test_qasm_roundtrip(seed, width):
    """circuits/qasm: export → import is semantics-preserving."""
    circuit = _random_circuit(seed, width, 8)
    rebuilt = from_qasm(to_qasm(circuit))
    assert rebuilt.num_qubits == circuit.num_qubits
    assert unitaries_equal_up_to_phase(
        circuit_unitary(rebuilt), circuit_unitary(circuit), atol=1e-7
    )


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, widths)
def test_inverse_composes_to_identity(seed, width):
    """circuits: U · U⁻¹ = 1 for any circuit."""
    circuit = _random_circuit(seed, width, 8)
    identity = circuit.copy()
    for inst in circuit.inverse():
        identity.append(inst.gate, inst.qubits)
    assert unitaries_equal_up_to_phase(
        circuit_unitary(identity), np.eye(2**width), atol=1e-7
    )


@settings(max_examples=30, deadline=None)
@given(circuit_seeds, widths)
def test_schedule_duration_bounds(seed, width):
    """transpile/schedule: critical path ≤ serial sum, ≥ longest gate."""
    circuit = decompose_to_basis(_random_circuit(seed, width, 12))
    if len(circuit) == 0:
        return
    schedule = asap_schedule(circuit)
    serial = sum(e.duration_ns for e in schedule.entries)
    longest = max(e.duration_ns for e in schedule.entries)
    assert longest - 1e-9 <= schedule.duration_ns <= serial + 1e-9


@settings(max_examples=25, deadline=None)
@given(circuit_seeds, widths)
def test_schedule_never_overlaps_qubits(seed, width):
    """transpile/schedule: a qubit is never driven by two gates at once."""
    circuit = decompose_to_basis(_random_circuit(seed, width, 12))
    schedule = asap_schedule(circuit)
    per_qubit: dict = {}
    for entry in schedule.entries:
        for q in entry.instruction.qubits:
            per_qubit.setdefault(q, []).append((entry.start_ns, entry.end_ns))
    for intervals in per_qubit.values():
        intervals.sort()
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    circuit_seeds,
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
)
def test_parameter_binding_commutes_with_transpile(seed, num_params, value):
    """circuits/parameters x transpile: bind∘transpile == transpile∘bind.

    This is the invariant partial compilation rests on: the parameter tags
    survive the pipeline, so binding afterwards lands on the same circuit.
    """
    rng = np.random.default_rng(seed)
    params = [Parameter(f"t{i}") for i in range(num_params)]
    circuit = QuantumCircuit(2)
    for i in range(6):
        circuit.h(int(rng.integers(2)))
        circuit.cx(0, 1)
        circuit.rz(params[i % num_params] * float(rng.choice([1.0, -1.0, 0.5])), 1)
    values = {p: value for p in params}

    bound_then_transpiled = transpile(circuit.bind_parameters(values))
    transpiled_then_bound = transpile(circuit).bind_parameters(values)
    assert unitaries_equal_up_to_phase(
        circuit_unitary(bound_then_transpiled),
        circuit_unitary(transpiled_then_bound),
        atol=1e-7,
    )


@settings(max_examples=20, deadline=None)
@given(circuit_seeds)
def test_compose_is_associative_in_unitary(seed):
    """circuits/compose x sim: (A∘B)∘C == A∘(B∘C) as unitaries."""
    a = _random_circuit(seed, 2, 5)
    b = _random_circuit(seed + 1, 2, 5)
    c = _random_circuit(seed + 2, 2, 5)
    left = a.copy().compose(b).compose(c)
    right = a.copy().compose(b.copy().compose(c))
    assert unitaries_equal_up_to_phase(
        circuit_unitary(left), circuit_unitary(right), atol=1e-8
    )


@settings(max_examples=20, deadline=None)
@given(circuit_seeds, st.integers(min_value=2, max_value=MAX_QUBITS))
def test_measurement_probabilities_normalized(seed, width):
    """sim: output state stays normalized through any circuit."""
    circuit = _random_circuit(seed, width, 15)
    state = simulate(circuit).data
    assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-9)


# -- the paper's invariant, through the service front door ------------------
_ANSATZ_GATES = ("h0", "h1", "x0", "rx1", "cx01", "cx10")


@pytest.fixture(scope="module")
def coarse_service():
    from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
    from repro.service import CompilationService

    with CompilationService(
        settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
        hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=60),
        max_block_width=2,
    ) as service:
        yield service


def _ansatz(segments) -> QuantumCircuit:
    """Fixed-gate segments separated by ``Rz(θ_i)`` gates (one θ per gap)."""
    circuit = QuantumCircuit(2)
    for index, segment in enumerate(segments):
        if index:
            circuit.rz(Parameter(f"theta_{index - 1}"), index % 2)
        for name in segment:
            if name == "cx01":
                circuit.cx(0, 1)
            elif name == "cx10":
                circuit.cx(1, 0)
            elif name == "rx1":
                circuit.rx(0.7, 1)
            else:
                getattr(circuit, name[0])(int(name[1]))
    return circuit


@settings(max_examples=15, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.sampled_from(_ANSATZ_GATES), min_size=1, max_size=3),
        min_size=2,
        max_size=3,
    ),
    angles=st.lists(
        st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
)
def test_pulse_compilation_never_longer_than_gate_based(
    coarse_service, segments, angles
):
    """Paper §5–7: strict, flexible and full-GRAPE pulses are never longer
    than the gate-based lookup pulse, for any ansatz and any θ."""
    from repro.service import CompileRequest

    circuit = _ansatz(segments)
    theta = angles[: len(circuit.parameters)]
    options = {
        "flexible-partial": {
            "tuning_samples": 1,
            "learning_rates": (0.05,),
            "decay_rates": (0.002,),
        }
    }

    def duration(strategy):
        request = CompileRequest(
            circuit,
            theta,
            strategy=strategy,
            max_block_width=2,
            options=options.get(strategy, {}),
        )
        return coarse_service.compile(request).pulse_duration_ns

    gate = duration("gate")
    for strategy in ("strict-partial", "flexible-partial", "full-grape"):
        assert duration(strategy) <= gate + 1e-9, strategy
