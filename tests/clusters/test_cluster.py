"""Tests for cluster resources and the wakeup/select machinery."""

import pytest

from repro.clusters.cluster import FU_POOL, Cluster
from repro.core.instruction import DynInstr
from repro.workloads.trace import InstructionRecord, OpClass


def make_instr(seq, op=OpClass.IALU, dest=5):
    rec = InstructionRecord(pc=0x400000 + 4 * seq, op=op, dest=dest,
                            srcs=(1,))
    return DynInstr(seq, rec)


@pytest.fixture
def cluster():
    return Cluster(0, iq_size=4, regfile_size=4)


class TestResources:
    def test_admit_consumes_iq_and_register(self, cluster):
        instr = make_instr(0)
        cluster.admit(instr)
        assert cluster.free_int_iq == 3
        assert cluster.free_int_regs == 3
        assert instr.cluster == 0

    def test_store_consumes_no_register(self, cluster):
        instr = make_instr(0, op=OpClass.STORE, dest=-1)
        cluster.admit(instr)
        assert cluster.free_int_regs == 4
        assert cluster.free_int_iq == 3

    def test_fp_ops_use_fp_resources(self, cluster):
        instr = make_instr(0, op=OpClass.FPALU, dest=40)
        cluster.admit(instr)
        assert cluster.free_fp_iq == 3
        assert cluster.free_fp_regs == 3
        assert cluster.free_int_iq == 4

    def test_can_accept_goes_false_when_iq_full(self, cluster):
        for i in range(4):
            cluster.admit(make_instr(i))
        assert not cluster.can_accept(OpClass.IALU, True)
        assert cluster.can_accept(OpClass.FPALU, True)

    def test_can_accept_respects_register_limit(self):
        cluster = Cluster(0, iq_size=8, regfile_size=2)
        cluster.admit(make_instr(0))
        cluster.admit(make_instr(1))
        assert not cluster.can_accept(OpClass.IALU, True)
        # Destination-less instructions still fit.
        assert cluster.can_accept(OpClass.BRANCH, False)

    def test_admit_raises_when_full(self, cluster):
        for i in range(4):
            cluster.admit(make_instr(i))
        with pytest.raises(RuntimeError):
            cluster.admit(make_instr(5))

    def test_release_register(self, cluster):
        instr = make_instr(0)
        cluster.admit(instr)
        cluster.release_register(instr)
        assert cluster.free_int_regs == 4

    def test_double_release_raises(self, cluster):
        for instr, kind in ((make_instr(0), "int"),
                            (make_instr(1, OpClass.FPALU, 40), "fp")):
            cluster.admit(instr)
            cluster.release_register(instr)
            with pytest.raises(RuntimeError,
                               match=f"cluster 0 .*{kind} register"):
                cluster.release_register(instr)
        assert (cluster.free_int_regs, cluster.free_fp_regs) == (4, 4)

    def test_free_iq_entries_by_op(self, cluster):
        cluster.admit(make_instr(0))
        assert cluster.free_iq_entries(OpClass.IALU) == 3
        assert cluster.free_iq_entries(OpClass.FPALU) == 4

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Cluster(0, iq_size=0)


class TestSelect:
    def test_oldest_first_within_pool(self, cluster):
        a, b = make_instr(7), make_instr(3)
        cluster.admit(a)
        cluster.admit(b)
        cluster.make_ready(a)
        cluster.make_ready(b)
        selected = cluster.select()
        assert [i.seq for i in selected] == [3]  # one IALU per cycle
        assert cluster.select()[0].seq == 7

    def test_one_per_fu_pool_per_cycle(self, cluster):
        ops = [(0, OpClass.IALU, 1), (1, OpClass.IMUL, 2),
               (2, OpClass.FPALU, 40), (3, OpClass.FPMUL, 41),
               (4, OpClass.IALU, 3)]
        instrs = [make_instr(s, op, d) for s, op, d in ops]
        for i in instrs:
            cluster.admit(i)
            cluster.make_ready(i)
        selected = cluster.select()
        assert len(selected) == 4  # one per pool; second IALU waits
        assert all(i.issued for i in selected)

    def test_select_frees_iq_entry(self, cluster):
        instr = make_instr(0)
        cluster.admit(instr)
        cluster.make_ready(instr)
        cluster.select()
        assert cluster.free_int_iq == 4

    def test_releasing_iq_entry_past_iq_size_raises(self, cluster):
        # Made ready without being admitted: its selection would free an
        # issue-queue entry the full queue never gave out.
        for instr, kind in ((make_instr(0), "int"),
                            (make_instr(1, OpClass.FPALU, 40), "fp")):
            cluster.make_ready(instr)
            with pytest.raises(RuntimeError,
                               match=f"cluster 0 .*{kind} issue-queue entry"):
                cluster.select()
        assert (cluster.free_int_iq, cluster.free_fp_iq) == (4, 4)

    def test_loads_stores_branches_share_ialu(self, cluster):
        for op in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            assert FU_POOL[op] == "ialu"

    def test_has_ready(self, cluster):
        # Only instructions marked ready are selected, each exactly once.
        instr = make_instr(0)
        cluster.admit(instr)
        assert cluster.select() == []
        cluster.make_ready(instr)
        assert cluster.select() == [instr]
        assert cluster.select() == []

    def test_occupancy(self, cluster):
        cluster.admit(make_instr(0))
        cluster.admit(make_instr(1, op=OpClass.FPALU, dest=40))
        assert cluster.occupancy() == 2


class TestFpClassification:
    def test_fp_ops(self):
        # The cluster reads the ``_fp`` stamp; it must agree with is_fp.
        for op in (OpClass.FPALU, OpClass.FPMUL):
            assert op.is_fp and op._fp
        for op in (OpClass.IALU, OpClass.IMUL, OpClass.LOAD,
                   OpClass.STORE, OpClass.BRANCH):
            assert not op.is_fp and not op._fp
