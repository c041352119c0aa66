"""Tests for the cache access pipeline (baseline vs. L-Wire accelerated)."""

import pytest

from repro.memory.hierarchy import HitLevel, MemoryHierarchy
from repro.memory.pipeline import CachePipeline


@pytest.fixture
def pipeline():
    return CachePipeline(MemoryHierarchy())


class TestBaselinePipeline:
    def test_l1_hit_takes_six_cycles(self, pipeline):
        pipeline.hierarchy.l1.access(0x1000)
        pipeline.hierarchy.tlb.access(0x1000)
        result = pipeline.baseline_access(0x1000, full_addr_cycle=100)
        assert result.done_cycle == 106
        assert result.level is HitLevel.L1

    def test_tlb_miss_adds_penalty(self, pipeline):
        pipeline.hierarchy.l1.access(0x1000)
        result = pipeline.baseline_access(0x1000, full_addr_cycle=100)
        assert result.done_cycle == 106 + 30

    def test_l2_hit_adds_30(self, pipeline):
        pipeline.hierarchy.l2.access(0x1000)
        pipeline.hierarchy.tlb.access(0x1000)
        result = pipeline.baseline_access(0x1000, full_addr_cycle=100)
        assert result.done_cycle == 106 + 30
        assert result.level is HitLevel.L2

    def test_bank_conflict_delays_start(self, pipeline):
        pipeline.hierarchy.l1.access(0x1000)
        pipeline.hierarchy.tlb.access(0x1000)
        pipeline.hierarchy.reserve_bank(0x1000, 100)
        result = pipeline.baseline_access(0x1000, full_addr_cycle=100)
        assert result.done_cycle == 107


class TestAcceleratedPipeline:
    """Section 4: RAM access overlaps the MS-bit transfer; one extra
    cycle after the full address arrives selects translation + tag."""

    def _warm(self, pipeline, addr=0x1000):
        pipeline.hierarchy.l1.access(addr)
        pipeline.hierarchy.tlb.access(addr)

    def test_full_overlap_saves_ram_latency(self, pipeline):
        self._warm(pipeline)
        ram_done = pipeline.start_ram_early(0x1000, partial_cycle=100)
        assert ram_done == 106
        # MS bits arrive after RAM finished: done = ms + 1.
        result = pipeline.finish_early_access(0x1000, ram_done,
                                              full_addr_cycle=110)
        assert result.done_cycle == 111

    def test_partial_overlap(self, pipeline):
        self._warm(pipeline)
        ram_done = pipeline.start_ram_early(0x1000, partial_cycle=100)
        result = pipeline.finish_early_access(0x1000, ram_done,
                                              full_addr_cycle=103)
        # RAM (106) still dominates ms+1 (104).
        assert result.done_cycle == 106

    def test_accelerated_beats_baseline(self, pipeline):
        """With LS bits arriving earlier than the full address, the
        accelerated pipeline must never be slower."""
        self._warm(pipeline)
        other = CachePipeline(MemoryHierarchy())
        other.hierarchy.l1.access(0x1000)
        other.hierarchy.tlb.access(0x1000)
        ram_done = pipeline.start_ram_early(0x1000, partial_cycle=100)
        fast = pipeline.finish_early_access(0x1000, ram_done,
                                            full_addr_cycle=101)
        slow = other.baseline_access(0x1000, full_addr_cycle=101)
        assert fast.done_cycle <= slow.done_cycle

    def test_miss_path_added_after_tag_check(self, pipeline):
        pipeline.hierarchy.tlb.access(0x1000)
        pipeline.hierarchy.l2.access(0x1000)
        ram_done = pipeline.start_ram_early(0x1000, partial_cycle=100)
        result = pipeline.finish_early_access(0x1000, ram_done,
                                              full_addr_cycle=100)
        assert result.level is HitLevel.L2
        assert result.done_cycle == 106 + 30

    def test_early_start_holds_its_bank(self, pipeline):
        self._warm(pipeline)
        assert pipeline.start_ram_early(0x1000, 100) == 106
        assert pipeline.start_ram_early(0x1000, 100) == 107
