"""Wire-codec contracts: fingerprint stability and bit-identical results.

The two load-bearing properties of :mod:`repro.server.wire`:

* a circuit that crosses the wire keeps its exact
  ``content_fingerprint()`` — numeric angles by bit-exact float value,
  symbolic angles by their parameter skeleton — so the server hits the
  same cache slots an in-process caller would;
* a compile result round-trips with bit-identical control samples.

Plus the rejection surface: malformed payloads, unknown gates, live-object
options, and wire-version mismatches must raise :class:`WireError` (the
server's 400), never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.server import WireError, decode_request, encode_request
from repro.server.wire import (
    WIRE_VERSION,
    decode_circuit,
    decode_result,
    encode_circuit,
    encode_result,
)
from repro.service import CompileRequest


def _roundtrip(payload):
    """Force a real JSON round-trip — what the network actually does."""
    return json.loads(json.dumps(payload))


def _symbolic_circuit() -> QuantumCircuit:
    """Constants, bare parameters, and a linear expression in one circuit."""
    theta0, theta1 = Parameter("theta_0"), Parameter("theta_1")
    circuit = QuantumCircuit(2, name="symbolic")
    circuit.h(0)
    circuit.rz(0.1234567891234567, 0)  # full double precision survives
    circuit.rz(theta0, 0)
    circuit.cx(0, 1)
    circuit.rz(2.0 * theta1 + 0.5, 1)
    return circuit


class TestCircuitCodec:
    def test_fingerprint_stable_across_the_wire(self, workload):
        circuit, _ = workload
        decoded = decode_circuit(_roundtrip(encode_circuit(circuit)))
        assert decoded.content_fingerprint() == circuit.content_fingerprint()
        assert decoded.num_qubits == circuit.num_qubits
        assert decoded.count_ops() == circuit.count_ops()

    def test_symbolic_angles_round_trip(self):
        circuit = _symbolic_circuit()
        decoded = decode_circuit(_roundtrip(encode_circuit(circuit)))
        assert decoded.content_fingerprint() == circuit.content_fingerprint()
        assert decoded.parameters == circuit.parameters
        # Parameter interning: both rz gates bind through the same objects
        # a locally-built ansatz would share.
        assert len(decoded.parameters) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"gates": []},  # missing width
            {"width": 0, "gates": []},  # non-positive width
            {"width": 2, "gates": [{"qubits": [0]}]},  # missing gate name
            {"width": 2, "gates": [{"gate": "warp", "qubits": [0]}]},
            {"width": 2, "gates": [{"gate": "cx", "qubits": [0, 5]}]},
            {
                "width": 2,
                "gates": [{"gate": "rz", "qubits": [0], "params": [["?", 1]]}],
            },
        ],
        ids=[
            "missing-width",
            "zero-width",
            "missing-gate",
            "unknown-gate",
            "qubit-out-of-range",
            "bad-angle-tag",
        ],
    )
    def test_malformed_circuits_raise_wire_error(self, payload):
        with pytest.raises(WireError):
            decode_circuit(payload)


class TestRequestCodec:
    def test_full_round_trip(self, make_request):
        request = make_request(
            "strict-partial", max_block_width=2, options={"tag": "t"}
        )
        decoded = decode_request(_roundtrip(encode_request(request)))
        assert decoded.strategy == request.strategy
        assert decoded.max_block_width == 2
        assert decoded.use_cache is True
        assert decoded.options == {"tag": "t"}
        assert list(decoded.normalized_values()) == list(
            request.normalized_values()
        )
        assert (
            decoded.circuit.content_fingerprint()
            == request.circuit.content_fingerprint()
        )
        assert decoded.settings == request.settings
        assert decoded.hyperparameters == request.hyperparameters

    def test_mapping_values_are_not_wirable(self, workload):
        circuit, _ = workload
        name = circuit.parameters[0].name
        request = CompileRequest(circuit, {name: 0.3}, strategy="gate")
        with pytest.raises(WireError, match="mapping-form values"):
            encode_request(request)

    def test_unwirable_options_rejected(self, make_request):
        payload = encode_request(make_request("gate"))
        payload["options"] = {"pass_manager": "default"}
        with pytest.raises(WireError, match="live object"):
            decode_request(payload)

    def test_wire_version_mismatch_rejected(self, make_request):
        payload = encode_request(make_request("gate"))
        payload["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version mismatch"):
            decode_request(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("circuit"),
            lambda p: p.pop("strategy"),
            lambda p: p.update(values={"theta": 1.0}),
            lambda p: p.update(values=["x"]),
            lambda p: p.update(options=[1, 2]),
            lambda p: p.update(max_block_width="wide"),
            lambda p: p.update(settings={"regularization": {"bogus": 1}}),
            lambda p: p.update(hyperparameters={"optimizer": "sgd9000"}),
        ],
        ids=[
            "no-circuit",
            "no-strategy",
            "dict-values",
            "non-numeric-values",
            "list-options",
            "string-block-width",
            "bad-settings",
            "bad-hyperparameters",
        ],
    )
    def test_malformed_requests_raise_wire_error(self, make_request, mutate):
        payload = encode_request(make_request("gate"))
        mutate(payload)
        with pytest.raises(WireError):
            decode_request(payload)

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError):
            decode_request([1, 2, 3])


class TestResultCodec:
    def test_result_round_trips_bit_identical(
        self, service, make_request, programs_identical
    ):
        request = make_request("strict-partial", max_block_width=2)
        result = service.compile(request)
        decoded = decode_result(
            _roundtrip(encode_result(result)), request=request
        )
        assert decoded.strategy == result.strategy
        assert decoded.request is request
        assert programs_identical(
            decoded.compiled.program, result.compiled.program
        )
        assert (
            decoded.compiled.pulse_duration_ns
            == result.compiled.pulse_duration_ns
        )
        assert decoded.compiled.method == result.compiled.method

    def test_precompile_report_survives(self, service, make_request):
        request = make_request("strict-partial", max_block_width=2)
        result = service.compile(request)
        decoded = decode_result(_roundtrip(encode_result(result)))
        report = decoded.precompile_report
        assert report is not None
        assert report.method == result.precompile_report.method
        assert (
            report.blocks_precompiled
            == result.precompile_report.blocks_precompiled
        )
        # Plan compilers stay server-side.
        assert decoded.compiler is None

    def test_bad_result_payload_raises_wire_error(self):
        with pytest.raises(WireError):
            decode_result({"compiled": {"schedules": "nope"}})
