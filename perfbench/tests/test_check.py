"""The output checker accepts real results and rejects corrupted ones."""

import pytest

from perfbench import check
from perfbench import workloads as W


@pytest.fixture(scope="module")
def compiled():
    from repro.service import CompilationService, CompileRequest, ServiceConfig

    workload = W.Workload("h2_grape", "H2", "full-grape", max_block_width=2)
    circuit = W.build_circuit(workload)
    walk = W.ParameterWalk(W.walk_center(workload, len(circuit.parameters)), 0)
    request = CompileRequest(
        circuit, walk.next(), strategy="full-grape", max_block_width=2)
    settings, hyper = W.grape_settings()
    with CompilationService(
        ServiceConfig(), settings=settings, hyperparameters=hyper
    ) as service:
        result = service.compile(request)
        gate_ns = check.gate_duration(service, request)
    assert not all(check.is_lookup(p.schedule) for p in result.program.placed)
    return result, gate_ns, settings.target_fidelity


def test_accepts_a_correct_result(compiled):
    result, gate_ns, target = compiled
    assert check.Checker(target).check(result, gate_ns) == []


def test_rejects_scaled_controls(compiled):
    result, gate_ns, target = compiled
    problems = check.Checker(target).check(check.corrupt(result, "scale"), gate_ns)
    assert problems and all("fidelity" in p for p in problems)


def test_rejects_a_program_longer_than_gate_based(compiled):
    result, gate_ns, target = compiled
    problems = check.Checker(target).check(
        check.corrupt(result, "lengthen"), gate_ns)
    assert any("longer than gate-based" in p for p in problems)


def test_rejects_a_program_one_step_over_gate_based(compiled):
    result, _, target = compiled
    problems = check.Checker(target).check(result, result.pulse_duration_ns - 0.25)
    assert any("longer than gate-based" in p for p in problems)
