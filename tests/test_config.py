"""Tests for presets and global configuration."""

import pytest

from repro.config import (
    GATE_DURATIONS_NS,
    available_presets,
    get_preset,
    set_preset,
)
from repro.errors import ReproError


class TestPresets:
    def test_available(self):
        assert set(available_presets()) == {"ci", "paper"}

    def test_paper_preset_values(self):
        paper = get_preset("paper")
        assert paper.dt_ns == 0.05
        assert paper.target_fidelity == 0.999
        assert paper.max_block_qubits == 4
        assert paper.time_search_precision_ns == 0.3

    def test_unknown_preset(self):
        with pytest.raises(ReproError):
            get_preset("turbo")

    def test_set_preset_roundtrip(self):
        original = get_preset().name
        try:
            assert set_preset("paper").name == "paper"
            assert get_preset().name == "paper"
        finally:
            set_preset(original)


class TestGateDurations:
    def test_table1_values(self):
        assert GATE_DURATIONS_NS["rz"] == 0.4
        assert GATE_DURATIONS_NS["rx"] == 2.5
        assert GATE_DURATIONS_NS["h"] == 1.4
        assert GATE_DURATIONS_NS["cx"] == 3.8
        assert GATE_DURATIONS_NS["swap"] == 7.4

    def test_all_durations_nonnegative(self):
        assert all(v >= 0 for v in GATE_DURATIONS_NS.values())
