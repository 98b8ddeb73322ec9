"""Workload definitions: seeded inputs, service configuration, venues.

Every workload is a closed-loop variational run: each client sends its
next ``CompileRequest`` only after the previous reply arrived, the way an
optimizer waits for its compiled pulses.  A client's bindings come from a
seeded, mean-reverting walk of small steps around a fixed starting point,
so request *i+1* depends only on the seed, every request has a fresh
binding (no binding repeats) and every request uses the same ansatz.

The QAOA graph is the harness's fixed 3-regular instance (graph seed 0).
The seed drives the parameter walks only: measured on a 2-CPU host, the
graph drawn from the seed moved the per-request p50 between 0.38 s and
0.85 s, far more than any affordable run length averages out, while the
walk alone keeps GRAPE iterations per request within a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: GRAPE numerics for every workload (the coarse harness settings).
DT_NS = 0.25
TARGET_FIDELITY = 0.99
LEARNING_RATE = 0.05
DECAY_RATE = 0.002
MAX_ITERATIONS = 200

#: The QAOA MAXCUT instance: 3-regular, N=6, p=1, harness graph seed 0.
QAOA_GRAPH_SEED = 0

#: Local fleet workers behind ``dispatcher="queue"`` workloads.
FLEET_WORKERS = 2

#: Walk: theta' = center + RHO (theta - center) + STEP * N(0, 1), a
#: stationary spread of 0.05 rad.  The fast mean reversion keeps the
#: work per request alike across seeds: over six seeds of 40 QAOA
#: requests, GRAPE iterations per request spread 0.029 (quartile distance
#: over median) against 0.129 for RHO 0.98 with 0.02 steps.
WALK_RHO = 0.5
WALK_STEP = 0.043


@dataclass(frozen=True)
class Workload:
    """One named workload: what to compile, how, and through which door."""

    name: str
    circuit: str  # "qaoa" or a molecule name
    strategy: str
    clients: int = 1
    venue: str = "inline"  # "inline" (CompilationService) or "http"
    dispatcher: str = "executor"  # "executor" or "queue"
    max_block_width: int | None = None


#: The benchmark's workloads, in ``BENCHMARK.json`` order.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("http_strict_clients", "LiH", "strict-partial", clients=2,
                 venue="http"),
        Workload("fleet_qaoa_loop", "qaoa", "full-grape", dispatcher="queue",
                 max_block_width=2),
    )
}

#: Runnable by name but not part of ``BENCHMARK.json``: their run-to-run
#: timing spread on a shared 2-CPU host is too wide for the metric bounds
#: at the run length the benchmark can afford (see README.md).
EXTRA_WORKLOADS = {
    w.name: w
    for w in (
        Workload("qaoa_grape_loop", "qaoa", "full-grape", max_block_width=2),
        Workload("vqe_flexible_loop", "H2", "flexible-partial"),
    )
}
ALL_WORKLOADS = {**WORKLOADS, **EXTRA_WORKLOADS}

#: Walk centers: QAOA (gamma, beta), a common p=1 starting point, and
#: every UCCSD amplitude for VQE.
QAOA_CENTER = (0.6, 0.4)
VQE_CENTER = 0.1


def grape_settings():
    from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings

    settings = GrapeSettings(dt_ns=DT_NS, target_fidelity=TARGET_FIDELITY)
    hyper = GrapeHyperparameters(
        learning_rate=LEARNING_RATE,
        decay_rate=DECAY_RATE,
        max_iterations=MAX_ITERATIONS,
    )
    return settings, hyper


def build_circuit(workload: Workload):
    """The routed ansatz: transpiled onto the nearly-square gmon grid."""
    from repro.transpile import transpile
    from repro.transpile.topology import nearly_square_grid

    if workload.circuit == "qaoa":
        from repro.qaoa import maxcut_problem, qaoa_circuit

        problem = maxcut_problem("3regular", 6, seed=QAOA_GRAPH_SEED)
        ansatz = qaoa_circuit(problem, 1)
    else:
        from repro.vqe import get_molecule

        ansatz = get_molecule(workload.circuit).ansatz()
    return transpile(ansatz, topology=nearly_square_grid(ansatz.num_qubits))


def walk_center(workload: Workload, num_params: int) -> np.ndarray:
    if workload.circuit == "qaoa":
        return np.array(QAOA_CENTER[:num_params], dtype=float)
    return np.full(num_params, VQE_CENTER)


class ParameterWalk:
    """A seeded optimizer-like walk: client 0 starts at ``center``, every
    client then takes small mean-reverting steps (other clients step off
    the center before their first request, so no two streams share a
    binding).  Stream ``client`` of seed ``seed`` is fully determined by
    the pair."""

    def __init__(self, center: np.ndarray, seed: int, client: int = 0):
        self.center = np.asarray(center, dtype=float)
        self.theta = self.center.copy()
        self._rng = np.random.default_rng([seed, client])
        self._started = client > 0

    def next(self) -> list:
        if self._started:
            noise = self._rng.normal(0.0, WALK_STEP, size=self.theta.shape)
            self.theta = (
                self.center + WALK_RHO * (self.theta - self.center) + noise
            )
        self._started = True
        return [float(v) for v in self.theta]


def service_config(workload: Workload, workdir: Path):
    """An explicit ``ServiceConfig`` (never read from the environment)."""
    from repro.service import ServiceConfig

    if workload.dispatcher == "queue":
        return ServiceConfig(
            dispatcher="queue",
            cache_dir=str(workdir / "cache"),
            fleet_dir=str(workdir / "fleet"),
            fleet_workers=FLEET_WORKERS,
        )
    return ServiceConfig()
