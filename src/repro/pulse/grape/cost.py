"""The GRAPE cost function and its exact gradient.

The objective is the gate infidelity

    ``C = 1 - |Tr(E† U_total)|² / d²  (+ regularization penalties)``

where ``E`` is the target unitary restricted to the computational subspace
(zero rows/columns on leakage levels, so qutrit leakage is automatically
penalized: amplitude that leaks out of the 2^n block simply does not count
toward the overlap).

Gradients are exact: the derivative of each step propagator
``U_k = exp(-i dt H_k)`` along each control operator comes from the
eigenbasis Fréchet formula (see :mod:`repro.linalg.expm`), and the chain
rule through the product ``U_N … U_1`` contracts it with
``G_k = A_{k-1} E† B_k`` (forward products ``A_k = U_k … U_1``, backward
products ``B_k = U_N … U_{k+1}``).

Kernel layout
-------------
``cost_and_gradient`` is the hot path of the whole reproduction — every
GRAPE iteration of every block runs it — so it is one stacked kernel,
:func:`stacked_cost_and_gradient`, over a leading batch axis of blocks.
:class:`GrapeCost` runs it with a batch of one and
:class:`~repro.pulse.grape.batched.BatchedGrapeCost` with many, so both
paths share every floating-point operation.

* Step Hamiltonians, eigendecompositions, propagators and Loewner
  (divided-difference) matrices come from single stacked calls.
* Only the forward products are scanned, through the blocked scan of
  :mod:`repro.linalg.scan` (``propagate`` uses it too).  The backward
  products follow from them because every propagator is unitary:
  ``B_k = U_total A_k†``, so with ``W = E† U_total`` (whose trace is the
  fidelity overlap) ``G_k = A_{k-1} W A_k†`` — a few batched GEMMs
  instead of a second scan.
* The per-control contraction is fused through the kernel matrix
  ``K_k = V̄_k (Γ_k ∘ (V_k† G_k V_k)ᵀ) V_kᵀ``: the ``O(d³)`` transforms run
  once per *step*, not per *step × control*, and the per-control
  reduction is one GEMM against the pre-flattened control operators.
* Per-call overhead is paid once per shape: operand layouts are prepared
  in ``__init__``; :func:`workspace` holds the resolved scan chunk length
  and the reused Hamiltonian and scan buffers per ``(batch, n_steps)``;
  penalty terms are skipped when every regularization weight is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GrapeError
from repro.linalg.expm import (
    _divided_differences,
    expm_hermitian,
    expm_hermitian_factorized,
)
from repro.linalg.scan import forward_partial_products, scan_block_size
from repro.pulse.hamiltonian import ControlSet, embed_target_unitary


@dataclass(frozen=True)
class RegularizationSettings:
    """Penalty weights for the "realistic pulses" mode (paper section 8.3).

    Attributes
    ----------
    amplitude_weight:
        L2 penalty on drive amplitudes (relative to each bound).
    slope_weight:
        L2 penalty on first differences — smooth first derivatives.
    curvature_weight:
        L2 penalty on second differences — smooth second derivatives.
    enforce_envelope:
        Force pulses to rise from and return to zero through a
        raised-cosine window (Gaussian-envelope-like shaping).
    """

    amplitude_weight: float = 0.0
    slope_weight: float = 0.0
    curvature_weight: float = 0.0
    enforce_envelope: bool = False

    @classmethod
    def realistic(cls) -> "RegularizationSettings":
        """The aggressive shaping used for Table 5's 'more realistic' rows."""
        return cls(
            amplitude_weight=1e-3,
            slope_weight=5e-3,
            curvature_weight=1e-3,
            enforce_envelope=True,
        )


class GrapeCost:
    """Evaluates the cost and gradient for fixed block/target/timestep."""

    def __init__(
        self,
        control_set: ControlSet,
        target: np.ndarray,
        dt_ns: float,
        regularization: RegularizationSettings | None = None,
    ):
        self.control_set = control_set
        self.dt_ns = float(dt_ns)
        if self.dt_ns <= 0:
            raise GrapeError(f"dt must be positive, got {dt_ns}")
        self.regularization = regularization or RegularizationSettings()

        n_qubits = len(control_set.qubits)
        dim_comp = 2**n_qubits
        if target.shape != (dim_comp, dim_comp):
            raise GrapeError(
                f"target shape {target.shape} does not match block of "
                f"{n_qubits} qubits"
            )
        # E: the target embedded with *zeros* outside the computational
        # subspace, so Tr(E† U) only scores the qubit block.
        embedded = embed_target_unitary(target, n_qubits, control_set.levels)
        if control_set.levels != 2:
            from repro.pulse.hamiltonian import computational_indices

            mask = np.zeros_like(embedded)
            idx = computational_indices(n_qubits, control_set.levels)
            mask[np.ix_(idx, idx)] = embedded[np.ix_(idx, idx)]
            embedded = mask
        self._target_embedded = embedded
        self._dim_comp = dim_comp

        # -- contraction plans, prepared once per cost object --------------
        # Control operators pre-flattened to (c, d²) so Hamiltonian assembly
        # and the per-control gradient reduction are single GEMMs; the
        # stacked kernel's operands are held as a batch of one.
        dim = control_set.dim
        self._ops_flat = np.ascontiguousarray(
            control_set.operators, dtype=complex
        ).reshape(-1, dim * dim)
        self._operands = (
            self._ops_flat[None],
            np.asarray(control_set.drift, dtype=complex)[None, None],
            np.ascontiguousarray(embedded.conj().T)[None],
        )
        reg = self.regularization
        self._penalized = max(
            reg.amplitude_weight, reg.slope_weight, reg.curvature_weight
        ) > 0
        self._workspaces: dict = {}

    # -- fidelity only (cheap path used for final verification) -----------
    def propagate(self, controls: np.ndarray) -> np.ndarray:
        """Total unitary produced by ``controls`` (shape (n_controls, n_steps))."""
        props = expm_hermitian(self._step_hamiltonians(controls), self.dt_ns)
        return forward_partial_products(props)[-1]

    def fidelity(self, controls: np.ndarray) -> float:
        overlap = np.trace(self._target_embedded.conj().T @ self.propagate(controls))
        return float(np.abs(overlap) ** 2 / self._dim_comp**2)

    # -- full cost + gradient ----------------------------------------------
    def cost_and_gradient(self, controls: np.ndarray) -> tuple:
        """Return ``(cost, gradient, fidelity)``.

        ``gradient`` has the same shape as ``controls``.
        """
        n_controls, n_steps = controls.shape
        if n_controls != self.control_set.num_controls:
            raise GrapeError(
                f"controls rows {n_controls} != channels {self.control_set.num_controls}"
            )
        costs, gradients, fidelities = stacked_cost_and_gradient(
            controls[None],
            *self._operands,
            self.dt_ns,
            self._dim_comp,
            workspace(self._workspaces, 1, n_steps, self.control_set.dim),
        )
        cost, gradient = float(costs[0]), gradients[0]
        if self._penalized:
            reg_cost, reg_grad = self._regularization_terms(controls)
            cost += reg_cost
            gradient += reg_grad
        return cost, gradient, float(fidelities[0])

    # -- helpers ------------------------------------------------------------
    def _step_hamiltonians(self, controls: np.ndarray) -> np.ndarray:
        """Stack of per-slice Hamiltonians ``H_k = H_drift + Σ_c u_ck Op_c``."""
        dim = self.control_set.dim
        hams = (controls.T @ self._ops_flat).reshape(-1, dim, dim)
        return hams + self.control_set.drift

    def _regularization_terms(self, controls: np.ndarray) -> tuple:
        reg = self.regularization
        cost = 0.0
        grad = np.zeros_like(controls)
        bounds = self.control_set.max_amplitudes[:, None]
        if reg.amplitude_weight > 0:
            rel = controls / bounds
            cost += reg.amplitude_weight * float(np.mean(rel**2))
            grad += 2 * reg.amplitude_weight * rel / bounds / rel.size
        if reg.slope_weight > 0 and controls.shape[1] > 1:
            diff = np.diff(controls, axis=1) / bounds
            cost += reg.slope_weight * float(np.mean(diff**2))
            back = np.zeros_like(controls)
            back[:, :-1] -= diff
            back[:, 1:] += diff
            grad += 2 * reg.slope_weight * back / bounds / diff.size
        if reg.curvature_weight > 0 and controls.shape[1] > 2:
            curv = np.diff(controls, n=2, axis=1) / bounds
            cost += reg.curvature_weight * float(np.mean(curv**2))
            back = np.zeros_like(controls)
            back[:, :-2] += curv
            back[:, 1:-1] -= 2 * curv
            back[:, 2:] += curv
            grad += 2 * reg.curvature_weight * back / bounds / curv.size
        return cost, grad


def workspace(cache: dict, batch: int, n_steps: int, dim: int) -> tuple:
    """The kernel's reused state for one ``(batch, n_steps)`` shape.

    ``(scan chunk length, Hamiltonian buffer, forward-scan buffer)``, built
    on first use and kept in ``cache``.  One shape dominates a run; the
    minimum-time search and freeze-out visit a few more, so the cache is
    cleared once it holds four.
    """
    key = (batch, n_steps)
    if key not in cache:
        if len(cache) >= 4:
            cache.clear()
        cache[key] = (
            scan_block_size(n_steps),
            np.empty((batch, n_steps, dim, dim), dtype=complex),
            np.empty((batch, n_steps + 1, dim, dim), dtype=complex),
        )
    return cache[key]


def stacked_cost_and_gradient(
    controls: np.ndarray,
    ops_flat: np.ndarray,
    drift: np.ndarray,
    e_dag: np.ndarray,
    dt: float,
    dim_comp: int,
    ws: tuple,
) -> tuple:
    """Infidelities, gradients and fidelities of ``B`` stacked blocks.

    ``controls`` is ``(B, c, S)``; the operands are stacked per block:
    flattened control operators ``(B, c, d²)``, drifts ``(B, 1, d, d)`` and
    folded targets ``E†`` ``(B, d, d)``.  Returns ``(costs, gradients,
    fidelities)`` shaped ``(B,)``, ``(B, c, S)`` and ``(B,)``, without
    regularization; ``ws`` comes from :func:`workspace`.  Every operation
    is per block, so a block's numbers do not depend on the rest of the
    stack.
    """
    batch, _, n_steps = controls.shape
    dim = drift.shape[-1]
    block_size, hams, forward = ws

    # Step Hamiltonians H_k = H_drift + Σ_c u_ck Op_c: one batched GEMM.
    np.matmul(
        controls.transpose(0, 2, 1),
        ops_flat,
        out=hams.reshape(batch, n_steps, dim * dim),
    )
    hams += drift
    eigvals, eigvecs, phases, props = expm_hermitian_factorized(hams, dt)

    # Forward products A_k = U_k … U_1 (A_0 = I, A_S = U_total).
    forward_partial_products(props, block_size, out=forward)
    w = np.matmul(e_dag, forward[:, n_steps])  # W = E† U_total
    overlap = w.trace(axis1=1, axis2=2) / dim_comp
    fidelity = np.abs(overlap) ** 2

    # dz/du_ck = Tr(G_k · dU_k/du_ck) / d_comp with G_k = A_{k-1} W A_k†
    # (see the module docstring).  In the eigenbasis of U_k = V_k D_k V_k†,
    # X_k = V_k† A_{k-1} turns the forward step into V_k† A_k = D_k X_k, so
    # (V_k† G_k V_k)ᵀ = conj(D_k X_k) Wᵀ X_kᵀ: two per-step GEMMs around one
    # GEMM per block against the shared Wᵀ.
    vecs_t = eigvecs.swapaxes(-1, -2)
    vecs_conj = eigvecs.conj()
    x_mats = np.matmul(vecs_conj.swapaxes(-1, -2), forward[:, :-1])
    rows = np.conjugate(x_mats * phases[..., :, None]).reshape(batch, -1, dim)
    m_mats = np.matmul(
        np.matmul(rows, w.transpose(0, 2, 1)).reshape(x_mats.shape),
        x_mats.swapaxes(-1, -2),
    )
    # Fused per-control contraction: with M_k = Γ_k ∘ (V_k† G_k V_k)ᵀ the
    # gradient overlap is Σ_ab (Op_c)_ab (K_k)_ab for K_k = V̄_k M_k V_kᵀ, so
    # the O(d³) transforms run once per step and the per-control reduction
    # is one GEMM against the pre-flattened operators.
    m_mats *= _divided_differences(eigvals, phases, dt)
    k_mats = np.matmul(vecs_conj, np.matmul(m_mats, vecs_t))
    overlap_grad = np.matmul(
        ops_flat, k_mats.reshape(batch, n_steps, dim * dim).transpose(0, 2, 1)
    )
    # dF/du = 2 Re(z̄ dz/du), and the cost is 1 - F.
    gradients = (-2.0 / dim_comp) * (overlap.conj()[:, None, None] * overlap_grad).real
    return 1.0 - fidelity, gradients, fidelity
