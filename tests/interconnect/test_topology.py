"""Tests for Figure 2's topology: one crossbar, and a ring of them."""

import pytest

from repro.interconnect.topology import CACHE_NODE, Topology
from repro.wires import WireClass


class TestCrossbar:
    @pytest.fixture
    def xbar(self):
        return Topology(4)

    def test_nodes(self, xbar):
        assert xbar.nodes == ["c0", "c1", "c2", "c3", CACHE_NODE]

    def test_table2_latencies(self, xbar):
        path = xbar.path("c0", "c2")
        assert path.latency[WireClass.B] == 2
        assert path.latency[WireClass.PW] == 3
        assert path.latency[WireClass.L] == 1

    def test_cluster_to_cache_same_latency(self, xbar):
        path = xbar.path("c1", CACHE_NODE)
        assert path.latency[WireClass.B] == 2

    def test_path_channels(self, xbar):
        path = xbar.path("c0", "c3")
        assert path.channels == ("c0:out", "c3:in")
        assert path.energy_weight == 1

    def test_no_self_path(self, xbar):
        with pytest.raises(ValueError):
            xbar.path("c0", "c0")

    def test_unknown_node(self, xbar):
        with pytest.raises(ValueError):
            xbar.path("c0", "c9")

    def test_cache_channels_wider(self, xbar):
        assert xbar.channel_width_factor("cache:in") == 2
        assert xbar.channel_width_factor("c0:out") == 1

    def test_latency_scale_doubles(self):
        xbar = Topology(4, latency_scale=2.0)
        path = xbar.path("c0", "c1")
        assert path.latency[WireClass.B] == 4
        assert path.latency[WireClass.L] == 2

    def test_latency_scale_minimum_one(self):
        xbar = Topology(4, latency_scale=0.25)
        assert xbar.path("c0", "c1").latency[WireClass.L] == 1

    def test_link_inventory(self, xbar):
        inventory = dict(xbar.link_inventory())
        assert inventory == {
            "c0": 1, "c1": 1, "c2": 1, "c3": 1, CACHE_NODE: 2,
        }

    def test_rejects_too_few_clusters(self):
        with pytest.raises(ValueError):
            Topology(1)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Topology(4, latency_scale=0.0)


class TestHierarchical:
    @pytest.fixture
    def ring(self):
        return Topology(16)

    def test_group_membership(self, ring):
        assert ring.group_of("c0") == 0
        assert ring.group_of("c3") == 0
        assert ring.group_of("c4") == 1
        assert ring.group_of("c15") == 3
        assert ring.group_of(CACHE_NODE) == 0

    def test_intra_group_is_crossbar_latency(self, ring):
        path = ring.path("c0", "c3")
        assert path.latency[WireClass.B] == 2
        assert path.energy_weight == 1
        assert path.channels == ("c0:out", "c3:in")

    def test_one_hop_latency(self, ring):
        """Table 2: B-Wire ring hop adds 4 cycles."""
        path = ring.path("c0", "c4")  # group 0 -> group 1
        assert path.latency[WireClass.B] == 2 + 4
        assert path.latency[WireClass.PW] == 3 + 6
        assert path.latency[WireClass.L] == 1 + 2
        assert path.energy_weight == 2
        assert "ring:0>1" in path.channels

    def test_two_hop_latency(self, ring):
        path = ring.path("c0", "c8")  # group 0 -> group 2
        assert path.latency[WireClass.B] == 2 + 8
        assert path.energy_weight == 3
        assert len(path.channels) == 4

    def test_minimal_ring_direction(self, ring):
        """Group 3 is one hop backward from group 0."""
        path = ring.path("c0", "c12")
        assert path.energy_weight == 2
        assert "ring:0>3" in path.channels

    def test_cache_hangs_off_group0(self, ring):
        near = ring.path("c0", CACHE_NODE)
        far = ring.path("c8", CACHE_NODE)
        assert near.latency[WireClass.B] == 2
        assert far.latency[WireClass.B] == 10

    def test_ring_channels_have_width_factor(self, ring):
        assert ring.channel_width_factor("ring:0>1") == 2
        assert ring.channel_width_factor("ring:1>0") == 2

    def test_link_inventory_includes_ring(self, ring):
        inventory = dict(ring.link_inventory())
        assert inventory[CACHE_NODE] == 2
        assert inventory["ring:0-1"] == 2
        assert sum(1 for name in inventory if name.startswith("ring")) == 4

    def test_rejects_nonmultiple_of_group(self):
        with pytest.raises(ValueError):
            Topology(10)

    def test_symmetric_hop_counts(self, ring):
        for a, b in (("c0", "c8"), ("c4", "c12"), ("c5", "c9")):
            assert (ring.path(a, b).energy_weight
                    == ring.path(b, a).energy_weight)


class TestNames:
    """The topology is the one owner of link and channel names."""

    @pytest.mark.parametrize("n, ring_links", [
        (2, 0), (3, 0), (4, 0), (8, 1), (12, 3), (16, 4),
    ])
    def test_every_channel_on_exactly_one_link(self, n, ring_links):
        topo = Topology(n)
        links = [link for link, _ in topo.link_inventory()]
        owners = {}
        for link in links:
            for channel in topo.channels_of(link):
                owners.setdefault(channel, []).append(link)
        assert sorted(owners) == topo.channels
        assert all(len(found) == 1 for found in owners.values())
        for channel in topo.channels:
            assert channel in topo.channels_of(topo.link_of(channel))
        assert sum(1 for link in links if link.startswith("ring:")) \
            == ring_links

    def test_ring_link_named_either_way_round(self):
        topo = Topology(16)
        assert topo.channels_of("ring:3-0") == topo.channels_of("ring:0-3")
        assert sorted(topo.channels_of("ring:0-3")) == [
            "ring:0>3", "ring:3>0"]

    def test_cluster_of(self):
        topo = Topology(16)
        for i in range(16):
            assert topo.cluster_of(f"c{i}:out") == i
            assert topo.cluster_of(f"c{i}:in") == i
        for channel in ("cache:out", "cache:in", "ring:0>1", "ring:3>0"):
            assert topo.cluster_of(channel) is None

    def test_unknown_link_has_no_channels(self):
        topo = Topology(16)
        assert topo.channels_of("c16") == ()
        assert topo.channels_of("ring:0-2") == ()
