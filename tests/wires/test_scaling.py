"""Technology-node scaling: golden 45 nm identity and factor sanity."""

import dataclasses
from itertools import pairwise

import pytest

from repro.interconnect.topology import Topology
from repro.wires import (
    CANONICAL_SPECS,
    CROSSBAR_LATENCY,
    FREQ_BASE_GHZ,
    RING_HOP_LATENCY,
    SUPPORTED_NODES,
    VDD_BASE_V,
    WireClass,
    link_length_m,
    link_metal_area_mm2,
    node_scaling,
    scale_catalog,
    supply_voltage,
)
from repro.wires.scaling import REFERENCE_LENGTH


def run_latencies(node):
    """(crossbar, ring hop) cycles per class of a run at ``node``: the
    16-cluster topology's crossbar path, and its one-hop path minus
    that (the classes Table 2 gives latencies for)."""
    topology = Topology(16, node_scaling(node).latency_factor)
    crossbar = topology.path("c0", "c1").latency
    one_hop = topology.path("c0", "c4").latency
    return ({wc: crossbar[wc] for wc in CROSSBAR_LATENCY},
            {wc: one_hop[wc] - crossbar[wc] for wc in RING_HOP_LATENCY})


class TestGolden45nm:
    """scale_catalog(45) must be *bit-identical* to Table 2.

    All downstream 45 nm results (the paper's tables, every cached
    sweep) flow through the canonical catalog; the scaling layer must
    be a perfect no-op at its anchor node.
    """

    def test_specs_bit_identical(self):
        catalog = scale_catalog(45)
        assert set(catalog) == set(CANONICAL_SPECS)
        for wc, spec in CANONICAL_SPECS.items():
            scaled = catalog[wc]
            for field in dataclasses.fields(spec):
                canonical = getattr(spec, field.name)
                value = getattr(scaled, field.name)
                assert value == canonical, (wc, field.name)
                # Bit-identity, not approximate equality: repr must
                # match so cache keys and rendered tables agree too.
                assert repr(value) == repr(canonical), (wc, field.name)

    def test_latencies_identical(self):
        assert run_latencies(45) == (CROSSBAR_LATENCY, RING_HOP_LATENCY)

    def test_scaling_factors_are_exactly_one(self):
        scaling = node_scaling(45)
        assert scaling.latency_factor == 1.0
        assert scaling.dynamic_scale == 1.0
        assert scaling.leakage_scale == 1.0
        assert scaling.area_scale == 1.0
        assert scaling.vdd == VDD_BASE_V
        assert scaling.frequency_ghz == FREQ_BASE_GHZ

    def test_both_profiles_anchor_at_45(self):
        scaling = node_scaling(45)
        assert scaling.latency_factor == 1.0
        assert scaling.dynamic_scale == 1.0
        assert scaling.leakage_scale == 1.0


class TestScalingTrends:
    def test_vdd_monotonically_nonincreasing(self):
        vdds = [supply_voltage(n) for n in SUPPORTED_NODES]
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
        specs = scale_catalog(node)
        assert set(specs) == set(CANONICAL_SPECS)
        # Relative orderings of Table 2 survive: L beats B beats PW on
        # delay, PW beats W on dynamic energy, at every node.
        assert (specs[WireClass.L].relative_delay
                < specs[WireClass.B].relative_delay
                < specs[WireClass.PW].relative_delay)
        assert (specs[WireClass.PW].relative_dynamic_energy
                < specs[WireClass.W].relative_dynamic_energy)

    @pytest.mark.parametrize("node", SUPPORTED_NODES)
    def test_area_factors_never_scale(self, node):
        # Area factors are *relative track widths* -- dimensionless
        # within a node -- so they are node-invariant by construction.
        for wc, spec in scale_catalog(node).items():
            assert spec.area_factor == CANONICAL_SPECS[wc].area_factor

    def test_l_wire_advantage_erodes_at_small_nodes(self):
        # At 45 nm an L-Wire crossbar traversal takes 1 cycle vs B's 2;
        # deeper nodes stretch both, keeping L strictly faster.
        for node in SUPPORTED_NODES[1:]:
            crossbar, _ = run_latencies(node)
            assert crossbar[WireClass.L] < crossbar[WireClass.B]


class TestValidation:
    def test_unsupported_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            scale_catalog(28)
        with pytest.raises(ValueError, match="node"):
            node_scaling(90)

    def test_determinism(self):
        assert scale_catalog(22) == scale_catalog(22)
        assert node_scaling(16) == node_scaling(16)
