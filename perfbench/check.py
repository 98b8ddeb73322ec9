"""Independent output check for compiled pulse programs.

Each GRAPE-made block of a result is propagated with the *frozen* seed
kernel (``benchmarks/grape_reference.py``), not the live one, and must
reach the GRAPE settings' target fidelity against the block unitary that
``repro.sim`` computes from the block's own subcircuit.  Every program
must also be no longer than the gate-based program for the same binding
(the paper's never-worse invariant).

Block subcircuits are recovered by re-running the strategy's blocking
stage on the request, outside the timed path; the pulse stage and the
assembly keep schedules in task order, so schedule *i* encodes task *i*.
"""

from __future__ import annotations

import copy

import numpy as np

#: The channel label of lookup-table placeholders, which carry no waveform.
LOOKUP_CHANNELS = ("lookup",)

FIDELITY_SLACK = 1e-9
DURATION_SLACK_NS = 1e-9


def is_lookup(schedule) -> bool:
    """Whether ``schedule`` is a lookup-table placeholder (no waveform)."""
    return tuple(schedule.channel_names) == LOOKUP_CHANNELS


def block_tasks(request):
    """The blocking tasks the request's strategy compiles, in order."""
    from repro.pipeline.stages import BlockingStage, PipelineContext

    circuit = request.circuit
    width = request.max_block_width
    if request.strategy == "full-grape":
        context = PipelineContext(
            circuit=circuit, bound=circuit.bind_parameters(list(request.values))
        )
        stage = BlockingStage(width)
    elif request.strategy == "strict-partial":
        context = PipelineContext(circuit=circuit)
        stage = BlockingStage(width, isolate_parametrized=True)
    elif request.strategy == "flexible-partial":
        from repro.core.slicing import flexible_slices

        context = PipelineContext(circuit=circuit)
        stage = BlockingStage(width, slicer=flexible_slices)
    else:
        raise ValueError(f"no block check for strategy {request.strategy!r}")
    stage.run(context)
    return context.tasks


def block_fidelity(device, schedule, target) -> float:
    """Frozen-kernel fidelity of ``schedule`` against the unitary ``target``."""
    from benchmarks.grape_reference import reference_cost_and_gradient
    from repro.pulse.grape.cost import GrapeCost
    from repro.pulse.hamiltonian import build_control_set

    control_set = build_control_set(device, schedule.qubits)
    cost = GrapeCost(control_set, target, schedule.dt_ns)
    return float(reference_cost_and_gradient(cost, schedule.controls)[2])


class Checker:
    """Checks results against one fidelity target.

    Results of one run share most of their work: partial strategies block
    the same symbolic circuit every time, and many blocks carry the same
    pulse for the same subcircuit.  Both are computed once per checker.
    """

    def __init__(self, target_fidelity: float):
        self.target_fidelity = target_fidelity
        self._tasks: dict = {}
        self._fidelities: dict = {}

    def tasks(self, request):
        if request.strategy == "full-grape":
            return block_tasks(request)
        key = (id(request.circuit), request.strategy, request.max_block_width)
        if key not in self._tasks:
            self._tasks[key] = (request.circuit, block_tasks(request))
        return self._tasks[key][1]

    def fidelity(self, device, schedule, subcircuit) -> float:
        from repro.sim.unitary import circuit_unitary

        target = circuit_unitary(subcircuit)
        key = (
            tuple(schedule.qubits),
            schedule.dt_ns,
            np.asarray(schedule.controls).tobytes(),
            target.tobytes(),
        )
        if key not in self._fidelities:
            self._fidelities[key] = block_fidelity(device, schedule, target)
        return self._fidelities[key]

    def check(self, result, gate_duration_ns: float) -> list:
        """Problems found in one result; an empty list means it is correct."""
        from repro.core.compiler import default_device_for

        request = result.request
        problems = []
        duration = result.pulse_duration_ns
        if not duration <= gate_duration_ns + DURATION_SLACK_NS:
            problems.append(
                f"program {duration:.3f} ns is longer than gate-based "
                f"{gate_duration_ns:.3f} ns"
            )
        if abs(result.program.duration_ns - duration) > DURATION_SLACK_NS:
            problems.append("reported duration differs from the program's")
        schedules = [placed.schedule for placed in result.program.placed]
        if all(is_lookup(s) for s in schedules):
            return problems  # gate-based program: lookup pulses only
        tasks = self.tasks(request)
        if len(tasks) != len(schedules):
            problems.append(f"{len(schedules)} schedules for {len(tasks)} blocks")
            return problems
        device = default_device_for(request.circuit)
        binding = dict(zip(request.circuit.parameters, request.values))
        for task, schedule in zip(tasks, schedules):
            if is_lookup(schedule):
                continue
            if tuple(schedule.qubits) != tuple(task.device_qubits):
                problems.append(
                    f"block {task.index}: schedule on {schedule.qubits}, "
                    f"block on {task.device_qubits}"
                )
                continue
            sub = task.subcircuit
            if sub is None:
                problems.append(f"block {task.index}: waveform for a lookup gate")
                continue
            if sub.is_parameterized():
                sub = sub.bind_parameters(binding)
            fidelity = self.fidelity(device, schedule, sub)
            if not fidelity >= self.target_fidelity - FIDELITY_SLACK:
                problems.append(
                    f"block {task.index} on {schedule.qubits}: fidelity "
                    f"{fidelity:.6f} < {self.target_fidelity}"
                )
        return problems


def gate_duration(gate_service, request) -> float:
    """Gate-based duration of the same binding, via the ``gate`` strategy."""
    from repro.service import CompileRequest

    return gate_service.compile(
        CompileRequest(request.circuit, list(request.values), strategy="gate")
    ).pulse_duration_ns


def corrupt(result, mode: str):
    """A deliberately wrong copy of ``result`` (for checker self-tests).

    ``scale`` multiplies every GRAPE waveform by 1.5; ``lengthen`` appends
    a lookup pulse that pushes the program past its gate-based length.
    """
    from dataclasses import replace

    from repro.pulse.schedule import PulseProgram, lookup_schedule

    compiled = copy.deepcopy(result.compiled)
    schedules = [placed.schedule for placed in compiled.program.placed]
    if mode == "scale":
        for schedule in schedules:
            if not is_lookup(schedule):
                schedule.controls = np.asarray(schedule.controls) * 1.5
    elif mode == "lengthen":
        qubits = tuple(range(result.request.circuit.num_qubits))
        schedules.append(lookup_schedule(qubits, 10_000.0))
        compiled.program = PulseProgram.sequence(schedules)
        compiled.pulse_duration_ns = compiled.program.duration_ns
    else:
        raise ValueError(f"unknown corruption {mode!r}")
    return replace(result, compiled=compiled)
