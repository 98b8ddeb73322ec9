"""Blocked prefix-product scan over stacks of matrices.

The GRAPE chain rule needs every forward partial product ``A_k = U_k … U_1``
of a pulse's step propagators.  (The backward products follow from these:
the propagators are unitary, so ``U_N … U_{k+1} = U_total A_k†`` — see
:mod:`repro.pulse.grape.cost`.)  A naive scan is ``n_steps`` sequential
``d×d`` GEMMs — each far too small to amortize a BLAS call.  The blocked
scan here trades a few extra flops for *batched* GEMMs:

1. split the ``S`` matrices into ``C ≈ √S`` chunks of ``L ≈ √S``;
2. scan *within* every chunk simultaneously — step ``j`` of each chunk is
   independent of every other chunk, so the ``L-1`` scan steps are batched
   matmuls over ``C`` matrices each;
3. scan the ``C`` chunk totals sequentially (the only serial part,
   ``C-1`` small GEMMs) into exclusive chunk offsets;
4. combine local scans with their chunk offsets in one batched matmul —
   one ``(L·d) × d`` GEMM per chunk, since a chunk's steps share its offset.

That is ``≈ 2√S`` numpy calls instead of ``S``, each over ``√S``-fold
larger batches — and every leading batch axis
(the cross-block stacking of :mod:`repro.pulse.grape.batched`) multiplies
the batch size further at zero extra calls.  The scan axis is always
``-3``.

Products reassociate (``(U₃U₂)(U₁)`` instead of ``U₃(U₂U₁)``), so results
match the sequential scan to float accumulation order — ~1e-14 for
unitary operands — not bit-for-bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Below this many matrices the sequential scan wins (blocking overhead —
#: padding, reshapes, the extra combine GEMM — is not worth amortizing).
MIN_BLOCKED_STEPS = 8


def scan_block_size(n_steps: int) -> int:
    """The default chunk length for an ``n_steps`` scan (``≈ √n_steps``).

    Returns 1 — meaning "scan sequentially" — for short scans.  Depends on
    ``n_steps`` only, so a cross-block batched scan and a per-block scan of
    the same pulse length chunk (and therefore reassociate) identically.
    """
    if n_steps < MIN_BLOCKED_STEPS:
        return 1
    return max(2, int(round(math.sqrt(n_steps))))


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """One shared read-only identity per dimension (the scan only copies it)."""
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def forward_partial_products(props, block_size=None, out=None):
    """All forward partial products of a propagator stack.

    ``out[..., 0] = I`` and ``out[..., k] = props[..., k-1] @ … @ props[..., 0]``
    — the ``A_k`` of the GRAPE chain rule, with ``out[..., -1]`` the total
    unitary.  ``props`` has shape ``(..., n, d, d)``; the result appends one
    scan entry: ``(..., n+1, d, d)``.  ``block_size`` is the chunk length
    (:func:`scan_block_size` when ``None``; 1 scans sequentially).
    """
    props = np.asarray(props)
    n, d = props.shape[-3], props.shape[-1]
    lead = props.shape[:-3]
    if out is None:
        out = np.empty(lead + (n + 1, d, d), dtype=np.result_type(props, complex))
    eye = _identity(d)
    out[..., 0, :, :] = eye
    size = scan_block_size(n) if block_size is None else max(1, int(block_size))
    if size <= 1 or n <= size:
        for k in range(n):
            np.matmul(
                props[..., k, :, :], out[..., k, :, :], out=out[..., k + 1, :, :]
            )
        return out

    chunks = -(-n // size)
    # Trailing identity padding: the padded entries land past index n of
    # the combined scan and are sliced away below.
    work = np.empty(lead + (chunks * size, d, d), dtype=out.dtype)
    work[..., :n, :, :] = props
    work[..., n:, :, :] = eye
    work = work.reshape(lead + (chunks, size, d, d))

    # (2) local scans: step j of every chunk at once — batched over chunks.
    local = np.empty_like(work)
    local[..., 0, :, :] = work[..., 0, :, :]
    for j in range(1, size):
        np.matmul(
            work[..., j, :, :], local[..., j - 1, :, :], out=local[..., j, :, :]
        )
    # (3) sequential exclusive prefix over the chunk totals.
    offsets = np.empty(lead + (chunks, d, d), dtype=out.dtype)
    offsets[..., 0, :, :] = eye
    for c in range(1, chunks):
        np.matmul(
            local[..., c - 1, size - 1, :, :],
            offsets[..., c - 1, :, :],
            out=offsets[..., c, :, :],
        )
    # (4) combine: a chunk's steps share its offset, so stacking them into
    # (L·d, d) rows makes the combine one GEMM per chunk.
    combined = np.matmul(local.reshape(lead + (chunks, size * d, d)), offsets)
    out[..., 1:, :, :] = combined.reshape(lead + (chunks * size, d, d))[
        ..., :n, :, :
    ]
    return out
