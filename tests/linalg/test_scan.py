"""Blocked prefix-product scans: correctness vs the sequential reference."""

import numpy as np
import pytest

from repro.linalg.random import haar_random_unitary
from repro.linalg.scan import (
    MIN_BLOCKED_STEPS,
    forward_partial_products,
    scan_block_size,
)


def _props(n_steps: int, dim: int, seed: int = 0) -> np.ndarray:
    return np.stack(
        [haar_random_unitary(dim, seed=seed + k) for k in range(n_steps)]
    )


def _forward_reference(props: np.ndarray) -> np.ndarray:
    out = [np.eye(props.shape[-1], dtype=complex)]
    for mat in props:
        out.append(mat @ out[-1])
    return np.stack(out)


class TestScanBlockSize:
    def test_short_scans_stay_sequential(self):
        for n in range(1, MIN_BLOCKED_STEPS):
            assert scan_block_size(n) == 1

    def test_long_scans_chunk_near_sqrt(self):
        assert scan_block_size(100) == 10
        assert scan_block_size(64) == 8
        assert scan_block_size(MIN_BLOCKED_STEPS) >= 2



class TestForwardScan:
    @pytest.mark.parametrize("n_steps", [1, 3, 7, 8, 17, 48])
    def test_matches_sequential_reference(self, n_steps):
        props = _props(n_steps, 4)
        out = forward_partial_products(props)
        np.testing.assert_allclose(
            out, _forward_reference(props), atol=1e-12
        )
        assert out.shape == (n_steps + 1, 4, 4)

    def test_batched_leading_axis_is_bitwise_per_slice(self):
        """The cross-block contract: stacking B scans along a leading axis
        must give exactly what B independent scans give — the chunking
        depends on n_steps only."""
        stack = np.stack([_props(20, 3, seed=100 * b) for b in range(4)])
        batched = forward_partial_products(stack)
        for b in range(4):
            assert np.array_equal(
                batched[b], forward_partial_products(stack[b])
            )

    def test_block_size_override_reassociates_only(self):
        props = _props(30, 3)
        default = forward_partial_products(props)
        for size in (1, 2, 5, 15, 64):
            np.testing.assert_allclose(
                forward_partial_products(props, block_size=size),
                default,
                atol=1e-12,
            )

    def test_out_buffer_is_filled_and_returned(self):
        props = _props(12, 3)
        buffer = np.empty((13, 3, 3), dtype=complex)
        out = forward_partial_products(props, out=buffer)
        assert out is buffer
        np.testing.assert_allclose(out, _forward_reference(props), atol=1e-12)
