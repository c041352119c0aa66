"""Technology-node scaling: golden 45 nm identity and factor sanity."""

import dataclasses
from itertools import pairwise

import pytest

from repro.wires import (
    CANONICAL_SPECS,
    CROSSBAR_LATENCY,
    FREQ_BASE_GHZ,
    RING_HOP_LATENCY,
    SCALING_PROFILES,
    SUPPORTED_NODES,
    VDD_BASE_V,
    WireClass,
    clock_frequency_ghz,
    link_length_m,
    link_metal_area_mm2,
    node_scaling,
    scale_catalog,
    supply_voltage,
)
from repro.wires.scaling import REFERENCE_LENGTH


class TestGolden45nm:
    """scale_catalog(45) must be *bit-identical* to Table 2.

    All downstream 45 nm results (the paper's tables, every cached
    sweep) flow through the canonical catalog; the scaling layer must
    be a perfect no-op at its anchor node.
    """

    def test_specs_bit_identical(self):
        catalog = scale_catalog(45)
        assert set(catalog.specs) == set(CANONICAL_SPECS)
        for wc, spec in CANONICAL_SPECS.items():
            scaled = catalog.specs[wc]
            for field in dataclasses.fields(spec):
                canonical = getattr(spec, field.name)
                value = getattr(scaled, field.name)
                assert value == canonical, (wc, field.name)
                # Bit-identity, not approximate equality: repr must
                # match so cache keys and rendered tables agree too.
                assert repr(value) == repr(canonical), (wc, field.name)

    def test_latencies_identical(self):
        catalog = scale_catalog(45)
        assert catalog.crossbar_latency == CROSSBAR_LATENCY
        assert catalog.ring_hop_latency == RING_HOP_LATENCY

    def test_scaling_factors_are_exactly_one(self):
        scaling = node_scaling(45)
        assert scaling.latency_factor == 1.0
        assert scaling.dynamic_scale == 1.0
        assert scaling.leakage_scale == 1.0
        assert scaling.area_scale == 1.0
        assert scaling.vdd == VDD_BASE_V
        assert scaling.frequency_ghz == FREQ_BASE_GHZ

    def test_both_profiles_anchor_at_45(self):
        for profile in SCALING_PROFILES:
            scaling = node_scaling(45, profile)
            assert scaling.latency_factor == 1.0
            assert scaling.dynamic_scale == 1.0
            assert scaling.leakage_scale == 1.0


class TestScalingTrends:
    def test_vdd_monotonically_nonincreasing(self):
        for profile in SCALING_PROFILES:
            vdds = [supply_voltage(n, profile) for n in SUPPORTED_NODES]
            assert vdds == sorted(vdds, reverse=True)

    def test_dynamic_energy_falls_with_shrink(self):
        scales = [node_scaling(n).dynamic_scale for n in SUPPORTED_NODES]
        assert scales == sorted(scales, reverse=True)
        assert all(s > 0 for s in scales)

    def test_leakage_grows_with_shrink(self):
        scales = [node_scaling(n).leakage_scale for n in SUPPORTED_NODES]
        assert scales == sorted(scales)

    def test_wire_latency_in_cycles_worsens_past_32(self):
        # The motivating trend of the paper: wires scale worse than
        # logic, so cross-chip latency in *cycles* grows as clocks
        # outpace RC delay improvements.
        assert node_scaling(32).latency_factor > 1.0
        assert node_scaling(22).latency_factor \
            > node_scaling(32).latency_factor

    def test_area_halves_per_generation(self):
        areas = [node_scaling(n).area_scale for n in SUPPORTED_NODES]
        for prev, cur in pairwise(areas):
            assert cur == pytest.approx(prev / 2)

    def test_link_length_shrinks_with_die(self):
        lengths = [link_length_m(n) for n in SUPPORTED_NODES]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == REFERENCE_LENGTH

    def test_metal_area_positive_and_node_dependent(self):
        a45 = link_metal_area_mm2(144, 45)
        a22 = link_metal_area_mm2(144, 22)
        assert a45 > a22 > 0


class TestScaledCatalogs:
    @pytest.mark.parametrize("node", SUPPORTED_NODES)
    def test_catalog_preserves_class_structure(self, node):
        catalog = scale_catalog(node)
        assert set(catalog.specs) == set(CANONICAL_SPECS)
        assert set(catalog.crossbar_latency) == set(CROSSBAR_LATENCY)
        assert set(catalog.ring_hop_latency) == set(RING_HOP_LATENCY)
        # Relative orderings of Table 2 survive: L beats B beats PW on
        # delay, PW beats W on dynamic energy, at every node.
        specs = catalog.specs
        assert (specs[WireClass.L].relative_delay
                < specs[WireClass.B].relative_delay
                < specs[WireClass.PW].relative_delay)
        assert (specs[WireClass.PW].relative_dynamic_energy
                < specs[WireClass.W].relative_dynamic_energy)
        # Latencies stay whole positive cycles.
        for table in (catalog.crossbar_latency, catalog.ring_hop_latency):
            for latency in table.values():
                assert isinstance(latency, int) and latency >= 1

    @pytest.mark.parametrize("node", SUPPORTED_NODES)
    def test_area_factors_never_scale(self, node):
        # Area factors are *relative track widths* -- dimensionless
        # within a node -- so they are node-invariant by construction.
        for wc, spec in scale_catalog(node).specs.items():
            assert spec.area_factor == CANONICAL_SPECS[wc].area_factor

    def test_l_wire_advantage_erodes_at_small_nodes(self):
        # At 45 nm an L-Wire crossbar traversal takes 1 cycle vs B's 2;
        # deeper nodes stretch both, keeping L strictly faster.
        for node in SUPPORTED_NODES[1:]:
            catalog = scale_catalog(node)
            assert (catalog.crossbar_latency[WireClass.L]
                    < catalog.crossbar_latency[WireClass.B])


class TestValidation:
    def test_unsupported_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            scale_catalog(28)
        with pytest.raises(ValueError, match="node"):
            node_scaling(90)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            node_scaling(32, "moore")

    def test_conservative_profile_scales_less(self):
        # The "cons" profile clocks slower than ITRS at every shrink,
        # so its latency penalty (cycles per traversal) is milder.
        for node in SUPPORTED_NODES[2:]:
            assert (clock_frequency_ghz(node, "cons")
                    < clock_frequency_ghz(node, "itrs"))
            assert (node_scaling(node, "cons").latency_factor
                    < node_scaling(node, "itrs").latency_factor)

    def test_determinism(self):
        assert scale_catalog(22) == scale_catalog(22)
        assert node_scaling(16) == node_scaling(16)
