"""The stacked GRAPE kernel: long pulses, finite differences, shape reuse.

The kernel scans only the forward products and derives the backward ones
through unitarity (``B_k = U_total A_k†``), so any drift of the scanned
products away from unitarity would show first on long pulses.  The frozen
pre-rewrite kernel in ``benchmarks/grape_reference.py`` is the oracle.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.random import haar_random_unitary
from repro.pulse.device import GmonDevice
from repro.pulse.grape.batched import BatchedGrapeCost
from repro.pulse.grape.cost import GrapeCost, RegularizationSettings
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
from grape_reference import (  # noqa: E402
    kernel_fixture,
    reference_cost_and_gradient,
)

TOLERANCE = 1e-10

CONTROL_SET = build_control_set(GmonDevice(line_topology(2)), (0, 1))
TARGET = haar_random_unitary(4, seed=11)
PENALTIES = RegularizationSettings(
    amplitude_weight=0.1, slope_weight=0.2, curvature_weight=0.05
)
COSTS = {
    penalized: GrapeCost(
        CONTROL_SET, TARGET, dt_ns=0.25,
        regularization=PENALTIES if penalized else None,
    )
    for penalized in (False, True)
}


def _controls(seed: int, n_steps: int, scale: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (
        rng.normal(scale=scale, size=(CONTROL_SET.num_controls, n_steps))
        * CONTROL_SET.max_amplitudes[:, None]
    )


def _assert_identical(got, want) -> None:
    assert got[0] == want[0] and got[2] == want[2]
    assert np.array_equal(got[1], want[1])


class TestLongPulsesMatchReference:
    @pytest.mark.parametrize(
        "n_qubits,levels,n_steps", [(2, 2, 400), (2, 3, 150)]
    )
    def test_long_pulse(self, n_qubits, levels, n_steps):
        cost, controls = kernel_fixture(n_qubits, levels, n_steps)
        ref_cost, ref_grad, ref_fid = reference_cost_and_gradient(cost, controls)
        new_cost, new_grad, new_fid = cost.cost_and_gradient(controls)
        assert abs(new_cost - ref_cost) <= TOLERANCE
        assert abs(new_fid - ref_fid) <= TOLERANCE
        assert np.abs(new_grad - ref_grad).max() <= TOLERANCE


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_steps=st.integers(min_value=1, max_value=24),
    scale=st.floats(min_value=0.05, max_value=0.6),
    penalized=st.booleans(),
)
def test_gradient_matches_central_differences(seed, n_steps, scale, penalized):
    """Short pulses scan sequentially, longer ones in blocks: both paths."""
    cost = COSTS[penalized]
    controls = _controls(seed, n_steps, scale)
    _, gradient, _ = cost.cost_and_gradient(controls)
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for _ in range(3):
        c, k = rng.integers(controls.shape[0]), rng.integers(n_steps)
        up, down = controls.copy(), controls.copy()
        up[c, k] += eps
        down[c, k] -= eps
        fd = cost.cost_and_gradient(up)[0] - cost.cost_and_gradient(down)[0]
        fd /= 2 * eps
        assert abs(fd - gradient[c, k]) < 1e-5 * max(1.0, abs(fd))


class TestWorkspacesDoNotLeakBetweenShapes:
    STEPS = (16, 9, 30, 3, 16, 48, 9, 1, 30)

    def test_reused_cost_matches_fresh_cost(self):
        """One cost object visits more step counts than its workspace cache
        holds, and revisits some: every call equals a fresh object's."""
        reused = GrapeCost(CONTROL_SET, TARGET, dt_ns=0.25)
        for i, n_steps in enumerate(self.STEPS):
            controls = _controls(i, n_steps)
            fresh = GrapeCost(CONTROL_SET, TARGET, dt_ns=0.25)
            _assert_identical(
                reused.cost_and_gradient(controls),
                fresh.cost_and_gradient(controls),
            )

    def test_reused_batched_cost_matches_fresh(self):
        """Sub-batches and step counts change between calls, as under
        freeze-out and the minimum-time search."""
        targets = [haar_random_unitary(4, seed=20 + b) for b in range(3)]
        costs = [GrapeCost(CONTROL_SET, t, dt_ns=0.25) for t in targets]
        reused = BatchedGrapeCost(costs)
        for i, (indices, n_steps) in enumerate(
            [((0, 1, 2), 16), ((0, 2), 16), ((1,), 9), ((0, 1, 2), 30), ((2,), 16)]
        ):
            stack = np.stack([_controls(10 * i + b, n_steps) for b in indices])
            got = reused.cost_and_gradient(stack, indices=indices)
            want = BatchedGrapeCost(costs).cost_and_gradient(stack, indices=indices)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            for pos, b in enumerate(indices):
                single = GrapeCost(CONTROL_SET, targets[b], dt_ns=0.25)
                s_cost, s_grad, s_fid = single.cost_and_gradient(stack[pos])
                assert got[0][pos] == s_cost and got[2][pos] == s_fid
                assert np.array_equal(got[1][pos], s_grad)
