"""Tests for processor/interconnect configuration (Table 1)."""

import pytest

from repro.core.config import (
    InterconnectConfig,
    ProcessorConfig,
    baseline_interconnect,
    wire_counts,
)
from repro.core.simulation import build_processor
from repro.wires import WireClass


class TestTable1Defaults:
    """Table 1 of the paper, parameter by parameter."""

    def test_front_end(self):
        cfg = ProcessorConfig()
        assert cfg.fetch_queue_size == 64
        assert cfg.fetch_width == 8
        assert cfg.max_fetch_blocks == 2

    def test_window(self):
        cfg = ProcessorConfig()
        assert cfg.rob_size == 480
        assert cfg.issue_queue_size == 15   # per cluster, int and fp each
        assert cfg.regfile_size == 32       # per cluster, int and fp each

    def test_memory_system(self):
        h = ProcessorConfig().hierarchy
        assert h.l1_size_bytes == 32 * 1024
        assert h.l1_assoc == 4
        assert h.l1_latency == 6
        assert h.l1_banks == 4              # 4-way word-interleaved
        assert h.l2_size_bytes == 8 * 1024 * 1024
        assert h.l2_latency == 30
        assert h.mem_latency == 300
        assert h.tlb_entries == 128
        assert h.page_size == 8192

    def test_mispredict_penalty_at_least_12(self):
        """Refill (10) + branch resolution + 2-cycle B-Wire redirect
        >= 12 cycles."""
        cfg = ProcessorConfig()
        assert cfg.frontend_refill + 2 >= 12

    def test_icache(self):
        cfg = ProcessorConfig()
        assert cfg.icache_size_kb == 32
        assert cfg.icache_assoc == 2


class TestTopologySelection:
    """The processor sizes its topology from the machine it models."""

    def test_four_clusters_use_crossbar(self):
        topo = build_processor(baseline_interconnect(), "gzip").topology
        assert topo.num_groups == 1
        assert [link for link, _ in topo.link_inventory()] == [
            "c0", "c1", "c2", "c3", "cache"]

    def test_sixteen_clusters_use_hierarchy(self):
        topo = build_processor(baseline_interconnect(), "gzip",
                               num_clusters=16).topology
        assert topo.num_groups == 4
        assert topo.path("c0", "c8").energy_weight == 3

    def test_latency_scale_propagates(self):
        topo = build_processor(baseline_interconnect(), "gzip",
                               latency_scale=2.0).topology
        assert topo.path("c0", "c1").latency[WireClass.B] == 4


class TestInterconnectConfig:
    def test_baseline_is_model_i(self):
        cfg = baseline_interconnect()
        assert cfg.wires == {WireClass.B: 144}
        assert cfg.describe() == "144 B-Wires"

    def test_wire_counts_helper(self):
        assert wire_counts(B=144, L=36) == {
            WireClass.B: 144, WireClass.L: 36,
        }

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InterconnectConfig(wires={})

    def test_composition_roundtrip(self):
        cfg = InterconnectConfig(wires=wire_counts(B=144, PW=288, L=36))
        comp = cfg.build_composition()
        assert comp.plane(WireClass.PW).width == 144


class TestValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_clusters=0)
        with pytest.raises(ValueError):
            ProcessorConfig(rob_size=0)
        with pytest.raises(ValueError):
            ProcessorConfig(latency_scale=0.0)
