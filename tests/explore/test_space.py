"""Design points: validation, canonical encoding, plan compilation."""

import pytest

from repro.core.models import model, parse_design_point
from repro.explore import DesignPoint, baseline_point
from repro.explore.space import TOPOLOGIES
from repro.harness import ExperimentPlan
from repro.wires import WireClass


class TestDesignPoint:
    def test_from_mix_canonicalizes_order(self):
        point = DesignPoint.from_mix(
            32, {WireClass.L: 36, WireClass.B: 144}, "xbar4",
        )
        assert point.wires == (("B", 144), ("L", 36))
        assert point.model_name() == "dp@n32:B144+L36:cw2"
        assert point.encode() == "dp@n32:B144+L36:cw2|xbar4"

    def test_encode_decode_roundtrip(self):
        for point in (
            baseline_point(),
            DesignPoint.from_mix(22, {WireClass.PW: 288}, "ring16"),
            DesignPoint.from_mix(
                8, {WireClass.B: 288, WireClass.L: 72}, "xbar4",
                cache_width_factor=4,
            ),
        ):
            assert DesignPoint.decode(point.encode()) == point

    def test_num_clusters_follows_topology(self):
        for topology, clusters in TOPOLOGIES.items():
            point = DesignPoint.from_mix(
                45, {WireClass.B: 144}, topology,
            )
            assert point.num_clusters == clusters

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DesignPoint.from_mix(45, {}, "xbar4")
        with pytest.raises(ValueError):
            DesignPoint.from_mix(90, {WireClass.B: 144}, "xbar4")
        with pytest.raises(ValueError):
            DesignPoint.from_mix(45, {WireClass.B: 144}, "torus")
        with pytest.raises(ValueError):
            DesignPoint.from_mix(45, {WireClass.B: 143}, "xbar4")
        with pytest.raises(ValueError):
            DesignPoint.from_mix(45, {WireClass.B: -4}, "xbar4")

    def test_decode_rejects_malformed(self):
        for text in (
            "dp@n45:B144:cw2",          # missing topology
            "dp@n45:B144:cw2|torus",    # unknown topology
            "II|xbar4",                 # not a design point
            "dp@n45:L36+B144:cw2|xbar4",  # non-canonical order
        ):
            with pytest.raises(ValueError):
                DesignPoint.decode(text)

    def test_model_name_parses_back(self):
        point = DesignPoint.from_mix(
            16, {WireClass.B: 144, WireClass.PW: 288}, "xbar4",
        )
        node, wires, cwf = parse_design_point(point.model_name())
        assert node == 16
        assert wires == point.wire_mapping()
        assert cwf == 2

    @pytest.mark.parametrize("name", [
        "dp@n45:B3:cw2",      # odd count: no bidirectional split
        "dp@n45:B0:cw2",      # empty plane
        "dp@n45:B144:cw0",    # cache links narrower than nothing
    ])
    def test_parser_rejects_links_no_run_can_build(self, name):
        with pytest.raises(ValueError):
            parse_design_point(name)

    def test_model_resolves_with_scaled_specs(self):
        scaled = model("dp@n22:B144+L36:cw2")
        anchor = model("dp@n45:B144+L36:cw2")
        assert scaled.config.wires == anchor.config.wires
        # The 22 nm catalog differs from Table 2's 45 nm values.
        assert scaled.config.wire_specs != anchor.config.wire_specs

    def test_latency_scale_anchors_at_45(self):
        assert baseline_point().latency_scale() == 1.0
        assert DesignPoint.from_mix(
            22, {WireClass.B: 144}, "xbar4",
        ).latency_scale() > 1.0

    def test_compile_plans(self):
        point = DesignPoint.from_mix(
            32, {WireClass.B: 144, WireClass.L: 36}, "ring16",
        )
        base = ExperimentPlan("I", "gzip", instructions=5000, warmup=500,
                              seed=7)
        plans = point.compile_plans(base, ("gzip", "mesa"))
        assert [p.benchmark for p in plans] == ["gzip", "mesa"]
        for plan in plans:
            assert plan.model_name == point.model_name()
            assert plan.num_clusters == 16
            assert plan.latency_scale == point.latency_scale()
            assert plan.instructions == 5000
            assert plan.warmup == 500
            assert plan.seed == 7
        # Distinct points produce distinct cache keys.
        other = point.compile_plans(base, ("gzip",))[0]
        assert other.cache_key() == plans[0].cache_key()
        different = DesignPoint.from_mix(
            22, {WireClass.B: 144, WireClass.L: 36}, "ring16",
        ).compile_plans(base, ("gzip",))[0]
        assert different.cache_key() != plans[0].cache_key()
