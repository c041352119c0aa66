"""Tests for wire planes and link compositions."""

import pytest

from repro.interconnect.plane import LinkComposition, PlaneSpec
from repro.wires import CANONICAL_SPECS, WireClass


class TestPlaneSpec:
    def test_defaults_to_canonical_spec(self):
        plane = PlaneSpec(WireClass.B, width=72)
        assert plane.spec is CANONICAL_SPECS[WireClass.B]

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            PlaneSpec(WireClass.B, width=0)

    def test_rejects_mismatched_spec(self):
        with pytest.raises(ValueError):
            PlaneSpec(WireClass.B, width=72,
                      spec=CANONICAL_SPECS[WireClass.L])


class TestLinkComposition:
    def test_model_i_baseline(self):
        comp = LinkComposition({WireClass.B: 144})
        assert comp.plane(WireClass.B).width == 72  # per direction
        assert comp.bulk_plane() is WireClass.B

    def test_bidirectional_totals_must_be_even(self):
        with pytest.raises(ValueError):
            LinkComposition({WireClass.B: 143})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinkComposition({})

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            LinkComposition({WireClass.B: 0})

    def test_bulk_plane_prefers_b_over_pw(self):
        comp = LinkComposition({WireClass.PW: 288, WireClass.B: 144})
        assert comp.bulk_plane() is WireClass.B

    def test_bulk_plane_pw_when_no_b(self):
        comp = LinkComposition({WireClass.PW: 288, WireClass.L: 36})
        assert comp.bulk_plane() is WireClass.PW

    def test_lwires_only_cannot_carry_bulk(self):
        comp = LinkComposition({WireClass.L: 36})
        with pytest.raises(ValueError):
            comp.bulk_plane()

    def test_total_wires(self):
        comp = LinkComposition({WireClass.B: 144, WireClass.L: 36})
        assert comp.total_wires() == {WireClass.B: 144, WireClass.L: 36}

    def test_relative_metal_area_model_vii(self):
        """144 B (area 2x) + 36 L (area 8x) = 2x the Model I area."""
        model_i = LinkComposition({WireClass.B: 144})
        model_vii = LinkComposition({WireClass.B: 144, WireClass.L: 36})
        ratio = model_vii.relative_metal_area() / model_i.relative_metal_area()
        assert ratio == pytest.approx(2.0)

    def test_describe_orders_b_pw_l(self):
        comp = LinkComposition({
            WireClass.L: 36, WireClass.B: 144, WireClass.PW: 288,
        })
        assert comp.describe() == "144 B-Wires, 288 PW-Wires, 36 L-Wires"
