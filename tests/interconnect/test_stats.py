"""Tests for interconnect activity counters and energy accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect.stats import (
    InterconnectStats,
    PlaneActivity,
    leakage_energy,
)
from repro.wires import WireClass


class TestRecording:
    def test_segment_recording(self):
        stats = InterconnectStats()
        stats.record_segment(WireClass.B, 72, 1)
        stats.record_segment(WireClass.B, 72, 2)
        activity = stats.by_plane[WireClass.B]
        assert activity.transfers == 2
        assert activity.bits == 144
        assert activity.weighted_bits == 72 + 144

    def test_rejects_negative_bits(self):
        """Regression: a negative bit count must fail loudly instead of
        silently reducing the energy accumulators."""
        stats = InterconnectStats()
        with pytest.raises(ValueError, match="non-negative"):
            stats.record_segment(WireClass.B, -1, 1)
        assert stats.total_transfers() == 0

    def test_zero_bits_is_allowed(self):
        stats = InterconnectStats()
        stats.record_segment(WireClass.B, 0, 1)
        assert stats.by_plane[WireClass.B].transfers == 1
        assert stats.by_plane[WireClass.B].bits == 0

    def test_total_transfers(self):
        stats = InterconnectStats()
        assert stats.total_transfers() == 0
        stats.record_segment(WireClass.B, 72, 1)
        stats.record_segment(WireClass.PW, 72, 1)
        assert stats.total_transfers() == 2
        assert stats.transfers_on(WireClass.B) == 1
        assert stats.transfers_on(WireClass.L) == 0


class TestDynamicEnergy:
    def test_weighted_by_wire_class(self):
        stats = InterconnectStats()
        stats.record_segment(WireClass.B, 100, 1)
        stats.record_segment(WireClass.PW, 100, 1)
        expected = 100 * 0.58 + 100 * 0.30
        assert stats.dynamic_energy() == pytest.approx(expected)

    def test_hop_weighting(self):
        stats = InterconnectStats()
        stats.record_segment(WireClass.B, 72, 3)
        assert stats.dynamic_energy() == pytest.approx(3 * 72 * 0.58)

    @given(bits=st.lists(st.integers(min_value=1, max_value=200),
                         max_size=30))
    def test_energy_additive(self, bits):
        """Recording N segments equals the sum of individual energies."""
        stats = InterconnectStats()
        for b in bits:
            stats.record_segment(WireClass.L, b, 1)
        expected = sum(b * 0.84 for b in bits)
        assert stats.dynamic_energy() == pytest.approx(expected)


class TestLeakage:
    def test_scales_with_wires_and_cycles(self):
        inventory = {WireClass.B: 100}
        assert leakage_energy(inventory, 10) == pytest.approx(
            100 * 0.55 * 10
        )

    def test_mixed_inventory(self):
        inventory = {WireClass.B: 144, WireClass.L: 36}
        per_cycle = 144 * 0.55 + 36 * 0.79
        assert leakage_energy(inventory, 7) == pytest.approx(7 * per_cycle)

    def test_zero_cycles(self):
        assert leakage_energy({WireClass.B: 10}, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            leakage_energy({WireClass.B: 10}, -1)
        with pytest.raises(ValueError):
            leakage_energy({WireClass.B: -10}, 1)

    def test_paper_model_ratio(self):
        """Leakage of 288 PW-Wires vs 144 B-Wires per link: the paper's
        Table 3 leakage column for Model II at equal cycles (~109)."""
        pw = leakage_energy({WireClass.PW: 288}, 100)
        b = leakage_energy({WireClass.B: 144}, 100)
        assert pw / b == pytest.approx(288 * 0.30 / (144 * 0.55))
        assert 1.0 < pw / b < 1.2


class TestPlaneActivity:
    def test_defaults(self):
        a = PlaneActivity()
        assert a.transfers == 0 and a.bits == 0 and a.weighted_bits == 0
