"""Tests for memory-dependence speculation (predictor + LSQ behaviour)."""

import pytest

from repro.core.instruction import DynInstr
from repro.memory.depspec import MemoryDependencePredictor
from repro.memory.hierarchy import HitLevel, MemoryHierarchy
from repro.memory.lsq import LoadStoreQueue
from repro.memory.pipeline import CachePipeline
from repro.workloads.trace import InstructionRecord, OpClass


def load(seq, addr, pc=None):
    rec = InstructionRecord(pc=pc or (0x400000 + 4 * seq),
                            op=OpClass.LOAD, dest=5, srcs=(1,), addr=addr)
    return DynInstr(seq, rec)


def store(seq, addr):
    rec = InstructionRecord(pc=0x500000 + 4 * seq, op=OpClass.STORE,
                            srcs=(1, 2), addr=addr)
    return DynInstr(seq, rec)


class SpecHarness:
    def __init__(self):
        self.hierarchy = MemoryHierarchy()
        self.pipeline = CachePipeline(self.hierarchy)
        self.done = []
        self.violations = []
        self.predictor = MemoryDependencePredictor(64)
        self.lsq = LoadStoreQueue(
            self.pipeline, size=32, partial_enabled=False,
            load_done=lambda i, c, lvl: self.done.append((i.seq, c, lvl)),
            dependence_predictor=self.predictor,
            on_violation=lambda i, c: self.violations.append((i.seq, c)),
        )

    def warm(self, addr):
        self.hierarchy.l1.access(addr)
        self.hierarchy.tlb.access(addr)


class TestPredictor:
    def test_starts_independent(self):
        p = MemoryDependencePredictor(64)
        assert not p.predicts_dependence(0x400000)

    def test_one_violation_saturates(self):
        p = MemoryDependencePredictor(64)
        p.record_dependence(0x400000)
        assert p.predicts_dependence(0x400000)

    def test_independence_decays_slowly(self):
        p = MemoryDependencePredictor(64)
        p.record_dependence(0x400000)
        p.record_independent(0x400000)
        assert p.predicts_dependence(0x400000)  # 3 -> 2, still dependent
        p.record_independent(0x400000)
        assert not p.predicts_dependence(0x400000)

    def test_stats(self):
        p = MemoryDependencePredictor(64)
        p.record_dependence(0x400000)
        p.predicts_dependence(0x400000)
        p.predicts_dependence(0x400004)
        assert p.lookups == 2
        assert p.dependence_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryDependencePredictor(100)
        with pytest.raises(ValueError):
            MemoryDependencePredictor(64, threshold=0)


class TestSpeculativeLSQ:
    def test_load_skips_unresolved_older_store(self):
        """Predicted-independent load completes without waiting for the
        older store's address (baseline would stall)."""
        h = SpecHarness()
        h.warm(0x100)
        st = store(0, 0x900)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert len(h.done) == 1  # did not wait for the store
        assert h.lsq.speculative_loads == 1

    def test_visible_dependence_still_forwards(self):
        """Speculation only skips *unresolved* stores; a known match
        forwards normally."""
        h = SpecHarness()
        st = store(0, 0x100)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(st, 0x100, cycle=5)
        h.lsq.on_store_data(st, cycle=6)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done[0][2] is HitLevel.FORWARD
        assert h.lsq.violations == 0

    def test_violation_detected_and_reported(self):
        h = SpecHarness()
        h.warm(0x100)
        st = store(0, 0x100)   # same address, resolves late
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert len(h.done) == 1  # speculated
        h.lsq.on_full_address(st, 0x100, cycle=30)
        assert h.lsq.violations == 1
        assert h.violations == [(1, 30)]
        # The predictor learned: the same static load now waits.
        assert h.predictor.predicts_dependence(ld.rec.pc)

    def test_trained_load_waits_next_time(self):
        h = SpecHarness()
        h.warm(0x100)
        h.predictor.record_dependence(0x400100)
        st = store(0, 0x900)
        ld = load(1, 0x100, pc=0x400100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == []  # waits for the store like the baseline
        h.lsq.on_full_address(st, 0x900, cycle=20)
        assert len(h.done) == 1

    def test_clean_speculation_trains_independent(self):
        h = SpecHarness()
        h.warm(0x100)
        h.predictor._table[h.predictor._index(0x400100)] = 1
        st = store(0, 0x900)
        ld = load(1, 0x100, pc=0x400100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        h.lsq.on_full_address(st, 0x900, cycle=20)
        h.lsq.release(ld)
        assert h.predictor._table[h.predictor._index(0x400100)] == 0

    def test_no_violation_for_different_address(self):
        h = SpecHarness()
        h.warm(0x100)
        st = store(0, 0x908)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        h.lsq.on_full_address(st, 0x908, cycle=30)
        assert h.lsq.violations == 0


class TestProcessorIntegration:
    def _run(self, speculate):
        from dataclasses import replace

        from repro.core.models import model
        from repro.core.simulation import build_processor
        from repro.interconnect.selection import PolicyFlags
        flags = PolicyFlags(memory_dependence_speculation=speculate)
        cpu = build_processor(replace(model("I").config, flags=flags),
                              "gzip")
        stats = cpu.run(3000, warmup=800)
        return cpu, stats

    def test_off_by_default(self):
        from repro.core.models import model
        from repro.core.simulation import build_processor
        cpu = build_processor(model("I").config, "gzip")
        assert cpu.dependence_predictor is None

    def test_speculation_executes_loads_early(self):
        cpu, stats = self._run(True)
        assert cpu.lsq.speculative_loads > 0
        assert stats.committed >= 3000

    def test_speculation_rarely_violates(self):
        cpu, stats = self._run(True)
        assert stats.ordering_violations <= cpu.lsq.speculative_loads * 0.05

    def test_speculation_helps_or_is_neutral(self):
        _, base = self._run(False)
        _, spec = self._run(True)
        assert spec.ipc >= base.ipc * 0.97
