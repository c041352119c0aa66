"""Tests for LSQ disambiguation: baseline, partial-address, forwarding."""

import pytest

from repro.core.instruction import DynInstr
from repro.memory.hierarchy import HitLevel, MemoryHierarchy
from repro.memory.lsq import LoadStoreQueue
from repro.memory.pipeline import CachePipeline
from repro.workloads.trace import InstructionRecord, OpClass


def mem_instr(seq, op, addr):
    rec = InstructionRecord(pc=0x400000 + 4 * seq, op=op,
                            dest=5 if op is OpClass.LOAD else -1,
                            srcs=(1,), addr=addr)
    return DynInstr(seq, rec)


def load(seq, addr):
    return mem_instr(seq, OpClass.LOAD, addr)


def store(seq, addr):
    return mem_instr(seq, OpClass.STORE, addr)


class Harness:
    def __init__(self, partial=False, size=16):
        self.hierarchy = MemoryHierarchy()
        self.pipeline = CachePipeline(self.hierarchy)
        self.done = []
        self.lsq = LoadStoreQueue(
            self.pipeline, size=size, partial_enabled=partial,
            load_done=lambda i, c, lvl: self.done.append((i.seq, c, lvl)),
        )

    def warm(self, addr):
        self.hierarchy.l1.access(addr)
        self.hierarchy.tlb.access(addr)


class TestOccupancy:
    def test_allocate_until_full(self):
        h = Harness(size=2)
        assert h.lsq.allocate(load(0, 0x100))
        assert h.lsq.allocate(store(1, 0x200))
        assert not h.lsq.has_room()
        assert not h.lsq.allocate(load(2, 0x300))

    def test_release_frees_room(self):
        h = Harness(size=1)
        instr = load(0, 0x100)
        h.lsq.allocate(instr)
        h.lsq.release(instr)
        assert h.lsq.has_room()
        assert h.lsq.occupancy() == 0


class TestBaselineDisambiguation:
    def test_load_with_no_stores_accesses_immediately(self):
        h = Harness()
        h.warm(0x100)
        instr = load(0, 0x100)
        h.lsq.allocate(instr)
        h.lsq.on_full_address(instr, 0x100, cycle=10)
        assert h.done == [(0, 16, HitLevel.L1)]

    def test_load_waits_for_older_store_address(self):
        """The paper's baseline: no access until every older store's
        address is known."""
        h = Harness()
        h.warm(0x100)
        st = store(0, 0x900)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == []
        h.lsq.on_full_address(st, 0x900, cycle=20)
        assert h.done == [(1, 26, HitLevel.L1)]

    def test_younger_store_does_not_block(self):
        h = Harness()
        h.warm(0x100)
        ld = load(0, 0x100)
        st = store(1, 0x100)
        h.lsq.allocate(ld)
        h.lsq.allocate(st)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert len(h.done) == 1

    def test_forwarding_from_matching_store(self):
        h = Harness()
        st = store(0, 0x100)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(st, 0x100, cycle=5)
        h.lsq.on_store_data(st, cycle=8)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == [(1, 11, HitLevel.FORWARD)]
        assert h.lsq.true_forwards == 1

    def test_forwarding_waits_for_store_data(self):
        h = Harness()
        st = store(0, 0x100)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(st, 0x100, cycle=5)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == []
        h.lsq.on_store_data(st, cycle=30)
        assert h.done == [(1, 31, HitLevel.FORWARD)]

    def test_forwards_from_youngest_matching_store(self):
        h = Harness()
        st1 = store(0, 0x100)
        st2 = store(1, 0x100)
        ld = load(2, 0x100)
        for i in (st1, st2, ld):
            h.lsq.allocate(i)
        h.lsq.on_full_address(st1, 0x100, cycle=5)
        h.lsq.on_store_data(st1, cycle=5)
        h.lsq.on_full_address(st2, 0x100, cycle=6)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == []  # youngest match (st2) has no data yet
        h.lsq.on_store_data(st2, cycle=12)
        assert h.done == [(2, 13, HitLevel.FORWARD)]

    def test_committed_store_does_not_block(self):
        h = Harness()
        h.warm(0x100)
        st = store(0, 0x900)
        h.lsq.allocate(st)
        h.lsq.on_full_address(st, 0x900, 1)
        h.lsq.on_store_data(st, 1)
        h.lsq.release(st)
        ld = load(1, 0x100)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert len(h.done) == 1


class TestPartialAddressPipeline:
    def test_ls_mismatch_starts_ram_early(self):
        """Different LS bits rule out the dependence; RAM starts from the
        partial address and completion needs only ms+1."""
        h = Harness(partial=True)
        h.warm(0x100)
        st = store(0, 0x908)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_partial_address(st, 0x908, cycle=5)
        h.lsq.on_partial_address(ld, 0x100, cycle=5)
        assert h.lsq.early_ram_starts == 1
        # RAM done at 11; store full at 12, load full at 12 -> done 13.
        h.lsq.on_full_address(st, 0x908, cycle=12)
        h.lsq.on_full_address(ld, 0x100, cycle=12)
        assert h.done == [(1, 13, HitLevel.L1)]

    def test_unknown_older_store_ls_blocks_early_start(self):
        h = Harness(partial=True)
        st = store(0, 0x908)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_partial_address(ld, 0x100, cycle=5)
        assert h.lsq.early_ram_starts == 0

    def test_ls_alias_false_dependence_counted(self):
        """Same LS bits, different full addresses: a false dependence
        (the paper measures <9% of loads)."""
        h = Harness(partial=True)
        h.warm(0x100)
        alias = 0x100 + (1 << 11)  # same 8 LS word bits, different page
        st = store(0, alias)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_partial_address(st, alias, cycle=5)
        h.lsq.on_partial_address(ld, 0x100, cycle=5)
        assert h.lsq.early_ram_starts == 0  # must wait for full addresses
        h.lsq.on_full_address(st, alias, cycle=20)
        h.lsq.on_full_address(ld, 0x100, cycle=20)
        assert h.lsq.false_dependences == 1
        assert len(h.done) == 1

    def test_true_dependence_still_forwards(self):
        h = Harness(partial=True)
        st = store(0, 0x100)
        ld = load(1, 0x100)
        h.lsq.allocate(st)
        h.lsq.allocate(ld)
        h.lsq.on_partial_address(st, 0x100, cycle=5)
        h.lsq.on_partial_address(ld, 0x100, cycle=5)
        h.lsq.on_full_address(st, 0x100, cycle=10)
        h.lsq.on_store_data(st, cycle=10)
        h.lsq.on_full_address(ld, 0x100, cycle=12)
        assert h.done == [(1, 13, HitLevel.FORWARD)]
        assert h.lsq.false_dependences == 0

    def test_ls_bits_are_word_granular(self):
        h = Harness(partial=True)
        assert h.lsq.ls_bits_of(0x100) == h.lsq.ls_bits_of(0x100 + (1 << 11))
        assert h.lsq.ls_bits_of(0x100) != h.lsq.ls_bits_of(0x108)

    def test_early_start_faster_than_baseline(self):
        """End-to-end: partial pipeline completes sooner when the LS bits
        lead the full address."""
        base, fast = Harness(), Harness(partial=True)
        for h in (base, fast):
            h.warm(0x100)
        ld_b, ld_f = load(0, 0x100), load(0, 0x100)
        base.lsq.allocate(ld_b)
        fast.lsq.allocate(ld_f)
        fast.lsq.on_partial_address(ld_f, 0x100, cycle=10)
        base.lsq.on_full_address(ld_b, 0x100, cycle=14)
        fast.lsq.on_full_address(ld_f, 0x100, cycle=14)
        assert fast.done[0][1] < base.done[0][1]


class TestBlockerAwareWakes:
    """Store events skip a load while the store its last scan stopped at
    is still unresolved -- and only then."""

    @staticmethod
    def count_advances(h):
        calls = []
        advance = h.lsq._advance_load

        def counted(entry, cycle):
            calls.append(entry.instr.seq)
            advance(entry, cycle)
        h.lsq._advance_load = counted
        return calls

    def test_load_blocked_on_one_store_ignores_the_others(self):
        h = Harness()
        h.warm(0x100)
        s1, s2, s3 = store(0, 0x900), store(1, 0xA00), store(2, 0xB00)
        ld = load(3, 0x100)
        for instr in (s1, s2, s3, ld):
            h.lsq.allocate(instr)
        h.lsq.on_full_address(s1, 0x900, cycle=5)
        h.lsq.on_full_address(ld, 0x100, cycle=10)
        assert h.done == []
        calls = self.count_advances(h)
        h.lsq.on_store_data(s1, cycle=11)
        h.lsq.on_full_address(s3, 0xB00, cycle=12)
        h.lsq.on_store_data(s3, cycle=13)
        assert calls == [] and h.done == []
        h.lsq.on_full_address(s2, 0xA00, cycle=20)
        assert calls == [3]
        # Disambiguated at cycle 20, then a 6-cycle L1 hit.
        assert h.done == [(3, 26, HitLevel.L1)]

    def test_load_blocked_on_ls_bits_ignores_the_others(self):
        h = Harness(partial=True)
        h.warm(0x100)
        s1, s2 = store(0, 0x908), store(1, 0xA08)
        ld = load(2, 0x100)
        for instr in (s1, s2, ld):
            h.lsq.allocate(instr)
        h.lsq.on_partial_address(ld, 0x100, cycle=5)
        h.lsq.on_partial_address(s2, 0xA08, cycle=6)
        assert h.lsq.early_ram_starts == 0
        calls = self.count_advances(h)
        h.lsq.on_full_address(s2, 0xA08, cycle=7)
        h.lsq.on_store_data(s2, cycle=8)
        assert calls == [] and h.lsq.early_ram_starts == 0
        h.lsq.on_partial_address(s1, 0x908, cycle=9)
        assert calls == [2] and h.lsq.early_ram_starts == 1

    def test_ls_alias_rescans_after_the_aliasing_store_commits(self):
        """Every older LS slice known, one matching: no store blocks the
        load, so the first store event after the alias commits starts
        its RAM early."""
        h = Harness(partial=True)
        h.warm(0x100)
        alias = 0x100 + (1 << 11)  # same 8 LS word bits, different page
        s1, s2 = store(0, alias), store(1, 0x908)
        ld = load(2, 0x100)
        for instr in (s1, s2, ld):
            h.lsq.allocate(instr)
        h.lsq.on_partial_address(s1, alias, cycle=5)
        h.lsq.on_partial_address(s2, 0x908, cycle=5)
        h.lsq.on_partial_address(ld, 0x100, cycle=6)
        assert h.lsq.early_ram_starts == 0
        h.lsq.on_full_address(s1, alias, cycle=8)
        h.lsq.on_store_data(s1, cycle=9)
        h.lsq.release(s1)
        assert h.lsq.early_ram_starts == 0
        h.lsq.on_store_data(s2, cycle=10)  # unrelated to the load
        assert h.lsq.early_ram_starts == 1
        h.lsq.on_full_address(s2, 0x908, cycle=12)
        h.lsq.on_full_address(ld, 0x100, cycle=12)
        # The RAM started at cycle 10: done after its 6-cycle access.
        assert h.done == [(2, 16, HitLevel.L1)]


class TestStoreCommitGate:
    def test_store_ready_needs_address_and_data(self):
        h = Harness()
        st = store(0, 0x100)
        h.lsq.allocate(st)
        assert not h.lsq.store_ready_to_commit(st)
        h.lsq.on_full_address(st, 0x100, 5)
        assert not h.lsq.store_ready_to_commit(st)
        h.lsq.on_store_data(st, 6)
        assert h.lsq.store_ready_to_commit(st)

    def test_unallocated_store_is_ready(self):
        h = Harness()
        assert h.lsq.store_ready_to_commit(store(0, 0x100))


class TestStats:
    def test_false_dependence_rate(self):
        h = Harness()
        assert h.lsq.false_dependence_rate == 0.0
        h.warm(0x100)
        ld = load(0, 0x100)
        h.lsq.allocate(ld)
        h.lsq.on_full_address(ld, 0x100, 5)
        assert h.lsq.false_dependence_rate == 0.0
        assert h.lsq.loads_disambiguated == 1

    def test_validation(self):
        pipeline = CachePipeline(MemoryHierarchy())
        with pytest.raises(ValueError):
            LoadStoreQueue(pipeline, size=0)
        with pytest.raises(ValueError):
            LoadStoreQueue(pipeline, ls_compare_bits=0)
