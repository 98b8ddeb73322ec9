"""Integration tests: the paper's claims, end to end, at reduced scale."""

import numpy as np
import pytest

from repro.analysis.speedup import SpeedupRow
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.qaoa import QAOADriver, maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest
from repro.transpile.passes import transpile
from repro.transpile.topology import line_topology
from repro.vqe import VQEDriver, get_molecule, h2_hamiltonian

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=150)


@pytest.fixture(scope="module")
def qaoa_k4():
    """The 4-node clique QAOA p=1 circuit, transpiled — Figure 2's workload."""
    problem = maxcut_problem("clique", 4, seed=0)
    return transpile(qaoa_circuit(problem, 1))


@pytest.fixture(scope="module")
def device():
    return GmonDevice(line_topology(4))


@pytest.fixture(scope="module")
def theta(qaoa_k4):
    rng = np.random.default_rng(0)
    return list(rng.uniform(0.2, 1.2, size=len(qaoa_k4.parameters)))


class TestCompilationOrdering:
    """Table 4's invariant: gate ≥ strict ≥ flexible, GRAPE ≤ strict."""

    @pytest.fixture(scope="class")
    def durations(self, qaoa_k4, device, theta):
        flexible_options = {
            "tuning_samples": 1,
            "learning_rates": (0.05,),
            "decay_rates": (0.002,),
        }
        with CompilationService(
            device=device, settings=SETTINGS, hyperparameters=HYPER
        ) as service:

            def compile_with(strategy, **kwargs):
                return service.compile(
                    CompileRequest(
                        qaoa_k4, theta, strategy=strategy, max_block_width=3,
                        **kwargs,
                    )
                ).compiled

            return {
                "gate": compile_with("gate"),
                "grape": compile_with("full-grape", use_cache=False),
                "strict": compile_with("strict-partial"),
                "flexible": compile_with(
                    "flexible-partial", options=flexible_options
                ),
            }

    def test_speedup_ordering(self, durations):
        row = SpeedupRow(
            "qaoa_k4",
            durations["gate"].pulse_duration_ns,
            durations["strict"].pulse_duration_ns,
            durations["flexible"].pulse_duration_ns,
            durations["grape"].pulse_duration_ns,
        )
        assert row.ordering_holds(tolerance_ns=0.5)

    def test_grape_speedup_significant(self, durations):
        speedup = (
            durations["gate"].pulse_duration_ns / durations["grape"].pulse_duration_ns
        )
        assert speedup > 1.3  # paper reports ~2x at p=1 on K4

    def test_flexible_latency_below_full_grape(self, durations):
        assert (
            durations["flexible"].runtime_iterations
            < durations["grape"].runtime_iterations
        )

    def test_strict_zero_runtime_iterations(self, durations):
        assert durations["strict"].runtime_iterations == 0


class TestVariationalLoops:
    def test_vqe_with_strict_compiler_in_loop(self):
        molecule = get_molecule("H2")
        ansatz = transpile(molecule.ansatz())
        with CompilationService(
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
        ) as service:
            strict = service.compile(
                CompileRequest(ansatz, strategy="strict-partial", max_block_width=2)
            ).compiler
        driver = VQEDriver(
            h2_hamiltonian(), ansatz, max_iterations=60, seed=3, compiler=strict
        )
        result = driver.run()
        # Compilation inside the loop must be essentially free.
        assert result.compile_latency_s < 0.1
        assert len(result.compile_pulse_ns) == result.iterations
        assert result.optimal_energy < -1.0

    def test_qaoa_with_gate_compiler_in_loop(self):
        problem = maxcut_problem("clique", 4, seed=0)
        with CompilationService(default_strategy="gate") as service:
            driver = QAOADriver(problem, p=1, max_iterations=60, seed=0,
                                compiler=service)
            result = driver.run()
        assert result.approximation_ratio > 0.5


class TestTable2Shape:
    def test_vqe_runtime_grows_with_molecule_size(self):
        from repro.circuits.dag import critical_path_ns

        h2 = critical_path_ns(transpile(get_molecule("H2").ansatz()))
        lih = critical_path_ns(transpile(get_molecule("LiH").ansatz()))
        assert lih > 5 * h2  # paper: 35 ns vs 872 ns
