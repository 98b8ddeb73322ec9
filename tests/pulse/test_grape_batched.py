"""Cross-block batched GRAPE: bit-exact equivalence with the serial path.

The batched kernel's whole contract is that stacking N same-shape blocks
changes *nothing* about the numbers — every test here compares against
the per-block serial functions and asserts agreement at ≤1e-10 (observed
exact on this BLAS).
"""

import numpy as np
import pytest

from repro.errors import GrapeError
from repro.perf import get_perf_registry
from repro.pulse.device import GmonDevice
from repro.pulse.grape.batched import (
    BatchedGrapeCost,
    batch_telemetry,
    minimum_time_pulse_batch,
    optimize_pulse_batch,
)
from repro.pulse.grape.cost import GrapeCost
from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
RZ90 = np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)])

HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=120)


@pytest.fixture
def single_qubit_cs():
    return build_control_set(GmonDevice(line_topology(2)), [0])


class TestBatchedCostMatchesSerial:
    def test_stacked_cost_and_gradient_identical(self, single_qubit_cs, fast_settings):
        """One batched call == N serial calls, same controls in, ≤1e-10 out."""
        dt = fast_settings.resolved_dt()
        targets = [X, H, RZ90]
        costs = [
            GrapeCost(single_qubit_cs, t, dt, fast_settings.regularization)
            for t in targets
        ]
        rng = np.random.default_rng(5)
        stack = rng.normal(
            scale=0.01, size=(3, single_qubit_cs.num_controls, 12)
        )
        batched = BatchedGrapeCost(costs)
        b_costs, b_grads, b_fids = batched.cost_and_gradient(stack)
        for b, cost in enumerate(costs):
            s_cost, s_grad, s_fid = cost.cost_and_gradient(stack[b])
            assert abs(b_costs[b] - s_cost) <= 1e-10
            assert abs(b_fids[b] - s_fid) <= 1e-10
            assert np.abs(b_grads[b] - s_grad).max() <= 1e-10

    def test_indices_select_a_sub_batch(self, single_qubit_cs, fast_settings):
        dt = fast_settings.resolved_dt()
        costs = [
            GrapeCost(single_qubit_cs, t, dt, fast_settings.regularization)
            for t in (X, H, RZ90)
        ]
        batched = BatchedGrapeCost(costs)
        rng = np.random.default_rng(9)
        stack = rng.normal(scale=0.01, size=(3, single_qubit_cs.num_controls, 10))
        full = batched.cost_and_gradient(stack)
        sub = batched.cost_and_gradient(stack[[0, 2]], indices=[0, 2])
        assert np.array_equal(sub[0], full[0][[0, 2]])
        assert np.array_equal(sub[1], full[1][[0, 2]])
        assert np.array_equal(sub[2], full[2][[0, 2]])

    def test_mismatched_dim_rejected(self, fast_settings):
        device = GmonDevice(line_topology(3))
        dt = fast_settings.resolved_dt()
        one_q = build_control_set(device, [0])
        two_q = build_control_set(device, (0, 1))
        with pytest.raises(GrapeError):
            BatchedGrapeCost(
                [
                    GrapeCost(one_q, X, dt, fast_settings.regularization),
                    GrapeCost(
                        two_q, np.eye(4, dtype=complex), dt,
                        fast_settings.regularization,
                    ),
                ]
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(GrapeError):
            BatchedGrapeCost([])


class TestOptimizePulseBatch:
    def test_single_block_degenerates_to_serial(self, single_qubit_cs, fast_settings):
        serial = optimize_pulse(
            single_qubit_cs, X, num_steps=14, hyperparameters=HYPER,
            settings=fast_settings,
        )
        [batched] = optimize_pulse_batch(
            [single_qubit_cs], [X], num_steps=14, hyperparameters=HYPER,
            settings=fast_settings,
        )
        assert batched.converged == serial.converged
        assert batched.iterations == serial.iterations
        assert abs(batched.fidelity - serial.fidelity) <= 1e-10
        assert np.array_equal(batched.schedule.controls, serial.schedule.controls)

    def test_mixed_targets_with_freeze_out(self, single_qubit_cs, fast_settings):
        """Four targets converging at different iterations: blocks freeze
        out of the stack one by one, and each still reproduces its serial
        run exactly — same iteration count, same history, same controls."""
        targets = [X, H, RZ90, X @ H]
        serial = [
            optimize_pulse(
                single_qubit_cs, t, num_steps=14, hyperparameters=HYPER,
                settings=fast_settings,
            )
            for t in targets
        ]
        batched = optimize_pulse_batch(
            [single_qubit_cs] * 4, targets, num_steps=14,
            hyperparameters=HYPER, settings=fast_settings,
        )
        # The freeze-out machinery must actually engage: convergence
        # iterations differ across these targets.
        assert len({r.iterations for r in serial}) > 1
        for s, b in zip(serial, batched):
            assert b.converged == s.converged
            assert b.iterations == s.iterations
            assert abs(b.fidelity - s.fidelity) <= 1e-10
            assert b.fidelity_history == pytest.approx(
                s.fidelity_history, abs=1e-10
            )
            assert np.array_equal(b.schedule.controls, s.schedule.controls)
            assert b.schedule.qubits == s.schedule.qubits
            assert b.schedule.channel_names == s.schedule.channel_names

    def test_warm_starts_respected(self, single_qubit_cs, fast_settings):
        warm = np.full((single_qubit_cs.num_controls, 10), 0.01)
        serial = optimize_pulse(
            single_qubit_cs, H, num_steps=10, hyperparameters=HYPER,
            settings=fast_settings, initial=warm,
        )
        [batched] = optimize_pulse_batch(
            [single_qubit_cs], [H], num_steps=10, hyperparameters=HYPER,
            settings=fast_settings, initials=[warm],
        )
        assert batched.iterations == serial.iterations
        assert np.array_equal(batched.schedule.controls, serial.schedule.controls)

    def test_empty_batch(self, fast_settings):
        assert optimize_pulse_batch([], [], num_steps=10, settings=fast_settings) == []

    def test_shape_validation(self, single_qubit_cs, fast_settings):
        with pytest.raises(GrapeError):
            optimize_pulse_batch(
                [single_qubit_cs], [X, H], num_steps=10, settings=fast_settings
            )
        with pytest.raises(GrapeError):
            optimize_pulse_batch(
                [single_qubit_cs], [X], num_steps=0, settings=fast_settings
            )
        with pytest.raises(GrapeError):
            optimize_pulse_batch(
                [single_qubit_cs], [X], num_steps=10, settings=fast_settings,
                initials=[np.zeros((2, 3)), None],
            )


class TestMinimumTimeBatch:
    def test_batched_search_replays_serial_decisions(
        self, single_qubit_cs, fast_settings
    ):
        """Every block's probe sequence, durations, and iteration totals
        must match the sequential per-block search exactly."""
        targets = [X, H, RZ90, X @ H]
        ubs = [5.0, 3.0, 2.0, 5.0]
        serial = [
            minimum_time_pulse(
                single_qubit_cs, t, upper_bound_ns=ub, hyperparameters=HYPER,
                settings=fast_settings, precision_ns=0.25,
            )
            for t, ub in zip(targets, ubs)
        ]
        batched = minimum_time_pulse_batch(
            [single_qubit_cs] * 4, targets, ubs, hyperparameters=HYPER,
            settings=fast_settings, precision_ns=0.25,
        )
        for s, b in zip(serial, batched):
            assert b.converged == s.converged
            assert b.duration_ns == pytest.approx(s.duration_ns, abs=1e-12)
            assert b.grape_calls == s.grape_calls
            assert b.total_iterations == s.total_iterations
            assert abs(b.fidelity - s.fidelity) <= 1e-10
            assert len(b.probes) == len(s.probes)
            for bp, sp in zip(b.probes, s.probes):
                assert bp[0] == pytest.approx(sp[0], abs=1e-12)
                assert abs(bp[1] - sp[1]) <= 1e-10
                assert bp[2] == sp[2]
            assert np.array_equal(b.schedule.controls, s.schedule.controls)

    def test_length_mismatch_rejected(self, single_qubit_cs, fast_settings):
        with pytest.raises(GrapeError):
            minimum_time_pulse_batch(
                [single_qubit_cs], [X], [2.0, 3.0], settings=fast_settings
            )

    def test_max_group_one_forces_singleton_path(
        self, single_qubit_cs, fast_settings
    ):
        """Capping groups at one block routes every probe through the
        per-block kernel — results unchanged, no stacked groups recorded."""
        perf = get_perf_registry()
        groups_before = perf.counter("grape.batch.groups")
        singles_before = perf.counter("grape.batch.singleton_probes")
        capped = minimum_time_pulse_batch(
            [single_qubit_cs] * 2, [X, H], [4.0, 4.0], hyperparameters=HYPER,
            settings=fast_settings, precision_ns=0.25, max_group=1,
        )
        assert perf.counter("grape.batch.groups") == groups_before
        assert perf.counter("grape.batch.singleton_probes") > singles_before
        serial = [
            minimum_time_pulse(
                single_qubit_cs, t, upper_bound_ns=4.0, hyperparameters=HYPER,
                settings=fast_settings, precision_ns=0.25,
            )
            for t in (X, H)
        ]
        for s, b in zip(serial, capped):
            assert b.duration_ns == pytest.approx(s.duration_ns, abs=1e-12)
            assert b.total_iterations == s.total_iterations


class TestCompilerBatchedBlocks:
    def _compiler(self):
        from repro.core import PulseCache
        from repro.core.compiler import BlockPulseCompiler

        # Warm start off: fresh 2-qubit blocks would all get KAK seeds and
        # (deliberately) leave the batch, starving the path under test.
        return BlockPulseCompiler(
            GmonDevice(line_topology(4)),
            GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
            HYPER,
            PulseCache(),
            warm_start=False,
        )

    def _blocks(self):
        from repro.circuits.circuit import QuantumCircuit

        pair_a = QuantumCircuit(2).h(0).cx(0, 1)
        pair_b = QuantumCircuit(2).h(0).cx(0, 1)
        pair_b.rz(0.3, 1)
        single = QuantumCircuit(1).h(0)
        return [(pair_a, (0, 1)), (pair_b, (2, 3)), (single, (0,))]

    def test_mixed_shape_groups_match_per_block_path(self):
        """Two dim-9 blocks batch as one group; the dim-3 block stays a
        singleton; every outcome equals the serial compile_block result."""
        blocks = self._blocks()
        outcomes, stats = self._compiler().compile_blocks_batched(blocks)
        assert stats == {"batched_groups": 1, "batched_blocks": 2}
        serial_compiler = self._compiler()
        for (subcircuit, qubits), outcome in zip(blocks, outcomes):
            reference = serial_compiler.compile_block(subcircuit, qubits)
            assert outcome.duration_ns == pytest.approx(
                reference.duration_ns, abs=1e-12
            )
            assert outcome.fidelity == pytest.approx(
                reference.fidelity, abs=1e-10
            )
            assert np.array_equal(
                outcome.schedule.controls, reference.schedule.controls
            )

    def test_batched_results_land_in_the_cache(self):
        compiler = self._compiler()
        compiler.compile_blocks_batched(self._blocks())
        # A second pass over the same blocks must be all cache hits.
        outcomes, stats = compiler.compile_blocks_batched(self._blocks())
        assert stats == {"batched_groups": 0, "batched_blocks": 0}
        assert all(o.schedule is not None for o in outcomes)


class TestBatchTelemetry:
    def test_counters_accumulate(self, single_qubit_cs, fast_settings):
        before = batch_telemetry()
        minimum_time_pulse_batch(
            [single_qubit_cs] * 3, [X, H, RZ90], [3.0, 3.0, 3.0],
            hyperparameters=HYPER, settings=fast_settings, precision_ns=0.25,
        )
        after = batch_telemetry()
        assert after["groups"] > before["groups"]
        assert after["batched_blocks"] >= before["batched_blocks"] + 3
        assert after["stacked_calls"] > before["stacked_calls"]
        # Both are counts, reported as a total and a mean (not seconds).
        per_group = after["blocks_per_group"]
        assert set(per_group) == {"total", "mean"}
        assert per_group["total"] == after["batched_blocks"] + after["singleton_probes"]
        assert per_group["mean"] == pytest.approx(
            per_group["total"] / (after["groups"] + after["singleton_probes"]),
            abs=1e-6,
        )
        assert per_group["mean"] >= 1.0
        gemm = after["gemm_matrices"]
        assert set(gemm) == {"total", "mean"}
        assert gemm["total"] > before["gemm_matrices"]["total"]
        # Three 1-qubit blocks of at least one step share each stacked call.
        assert gemm["mean"] >= 1.0
        assert gemm["mean"] == pytest.approx(
            gemm["total"] / after["stacked_calls"], abs=1e-6
        )
        assert set(after) == {
            "groups",
            "batched_blocks",
            "singleton_probes",
            "stacked_calls",
            "blocks_per_group",
            "gemm_matrices",
        }
