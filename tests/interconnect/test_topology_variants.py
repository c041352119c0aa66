"""Topology variants beyond the paper's two headline machines."""

import pytest

from repro.core.models import model
from repro.harness.runner import ExperimentPlan, simulate_plan
from repro.interconnect.stats import leakage_energy
from repro.interconnect.topology import CACHE_NODE, Topology, cluster_node
from repro.wires import WireClass


class TestEightClusterHierarchy:
    """Two groups of four: the smallest ring-of-crossbars."""

    @pytest.fixture
    def topo(self):
        return Topology(8)

    def test_two_groups(self, topo):
        assert topo.num_groups == 2
        assert topo.group_of("c3") == 0
        assert topo.group_of("c4") == 1

    def test_single_hop_between_groups(self, topo):
        path = topo.path("c0", "c7")
        assert path.energy_weight == 2
        assert path.latency[WireClass.B] == 2 + 4

    def test_ring_with_two_nodes_has_two_directed_segments(self, topo):
        ring_channels = [c for c in topo.channels if c.startswith("ring")]
        assert sorted(ring_channels) == ["ring:0>1", "ring:1>0"]

    def test_run_leaks_one_ring_link(self, topo):
        """An ungated run leaks 8 cluster links, the 2x cache link and
        one 2x ring link: 12 link-widths, not 14."""
        run = simulate_plan(ExperimentPlan(
            "X", "gzip", num_clusters=8, instructions=1500, warmup=300,
            seed=42))
        per_link = model("X").config.build_composition().total_wires(False)
        inventory = {wc: count * sum(f for _, f in topo.link_inventory())
                     for wc, count in per_link.items()}
        assert run.cycles == 1493
        assert run.interconnect_leakage == pytest.approx(
            leakage_energy(inventory, run.cycles))
        assert run.interconnect_leakage == pytest.approx(3476420.64)


class TestThirtyTwoClusters:
    """Scaling the hierarchy past the paper's largest machine."""

    @pytest.fixture
    def topo(self):
        return Topology(32)

    def test_eight_groups(self, topo):
        assert topo.num_groups == 8

    def test_max_distance_is_four_hops(self, topo):
        # Group 0 to group 4: the far side of an 8-node ring.
        path = topo.path("c0", cluster_node(4 * 4))
        assert path.energy_weight == 1 + 4
        assert path.latency[WireClass.B] == 2 + 4 * 4

    def test_all_paths_exist(self, topo):
        nodes = topo.nodes
        for src in nodes[:6] + [CACHE_NODE]:
            for dst in nodes[-6:]:
                if src != dst:
                    path = topo.path(src, dst)
                    assert path.latency[WireClass.B] >= 2

    def test_cache_reach_grows_with_distance(self, topo):
        latencies = [
            topo.path(cluster_node(4 * g), CACHE_NODE).latency[WireClass.B]
            for g in range(8)
        ]
        assert latencies[0] == min(latencies)
        assert max(latencies) == 2 + 4 * 4


class TestLatencyScaleInteraction:
    def test_scale_applies_to_total_path(self):
        base = Topology(16)
        scaled = Topology(16, latency_scale=2.0)
        for pair in (("c0", "c1"), ("c0", "c4"), ("c0", "c8")):
            b = base.path(*pair).latency[WireClass.B]
            s = scaled.path(*pair).latency[WireClass.B]
            assert s == 2 * b

    def test_tl_lwires_on_the_ring(self):
        tl = Topology(16, latency_scale=2.0, transmission_line_lwires=True)
        rc = Topology(16, latency_scale=2.0)
        path_tl = tl.path("c0", "c8").latency[WireClass.L]
        path_rc = rc.path("c0", "c8").latency[WireClass.L]
        assert path_tl == 1 + 2 * 2   # unscaled time-of-flight
        assert path_rc == 2 * (1 + 2 * 2)
