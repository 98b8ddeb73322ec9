"""Dense linear-algebra substrate.

Small, self-contained numerical helpers used by the simulator, the pulse
model, and GRAPE: Pauli/ladder operators, operator embedding, vectorized
Hermitian matrix exponentials with exact Fréchet derivatives, fidelity
measures, and seeded random unitaries/states.
"""

from repro.linalg.operators import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    annihilation_operator,
    creation_operator,
    embed_operator,
    is_hermitian,
    is_unitary,
    kron_all,
    number_operator,
    pauli_matrix,
)
from repro.linalg.expm import expm_hermitian, expm_hermitian_frechet
from repro.linalg.scan import forward_partial_products, scan_block_size
from repro.linalg.unitaries import (
    average_gate_fidelity,
    closest_unitary,
    global_phase_aligned,
    process_fidelity,
    trace_fidelity,
    unitaries_equal_up_to_phase,
)
from repro.linalg.random import (
    haar_random_state,
    haar_random_unitary,
    random_hermitian,
)

__all__ = [
    "IDENTITY",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "annihilation_operator",
    "average_gate_fidelity",
    "forward_partial_products",
    "scan_block_size",
    "closest_unitary",
    "creation_operator",
    "embed_operator",
    "expm_hermitian",
    "expm_hermitian_frechet",
    "global_phase_aligned",
    "haar_random_state",
    "haar_random_unitary",
    "is_hermitian",
    "is_unitary",
    "kron_all",
    "number_operator",
    "pauli_matrix",
    "process_fidelity",
    "random_hermitian",
    "trace_fidelity",
    "unitaries_equal_up_to_phase",
]
