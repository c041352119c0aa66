"""Tests for the shared dynamic-instruction record and how rename reads
its availability and waiter fields."""

from repro.clusters.cluster import Cluster
from repro.core.config import InterconnectConfig, ProcessorConfig, wire_counts
from repro.core.instruction import NEVER, DynInstr
from repro.core.processor import ClusteredProcessor
from repro.workloads.trace import InstructionRecord, OpClass


def make(seq=0, op=OpClass.IALU, dest=5, srcs=(1, 2)):
    rec = InstructionRecord(pc=0x400000 + 4 * seq, op=op, dest=dest,
                            srcs=srcs)
    return DynInstr(seq, rec)


def rename(producer, consumer=None, home=0, cycle=100, clusters=4):
    """Rename ``consumer`` (default: an ALU op reading r5) into cluster
    ``home`` of ``clusters`` at ``cycle`` while the rename table maps r5
    to ``producer``; returns the consumer."""
    cpu = ClusteredProcessor(ProcessorConfig(num_clusters=clusters),
                             InterconnectConfig(wires=wire_counts(B=144)),
                             iter(()))
    cpu.rename[5] = producer
    consumer = consumer or make(9, dest=6, srcs=(5,))
    cluster = cpu.clusters[home]
    cluster.admit(consumer)
    cpu._rename(consumer, [], cluster, cycle)
    return consumer


class TestLifecycleFlags:
    def test_fresh_instruction(self):
        instr = make()
        assert not instr.issued
        assert not instr.completed
        assert not instr.committed
        assert instr.cluster == -1
        assert instr.complete_cycle == NEVER

    def test_op_properties(self):
        assert make(op=OpClass.LOAD, dest=5).is_load
        assert make(op=OpClass.STORE, dest=-1).is_store
        assert make(op=OpClass.BRANCH, dest=-1).is_branch
        assert not make(op=OpClass.IALU).is_load

    def test_needs_redirect(self):
        b = make(op=OpClass.BRANCH, dest=-1)
        assert not b.needs_redirect
        b.mispredicted = True
        assert b.needs_redirect
        b.mispredicted = False
        b.btb_miss = True
        assert b.needs_redirect


class TestAvailability:
    def test_not_available_until_recorded(self):
        producer = make()
        Cluster(0).admit(producer)
        assert rename(producer).outstanding == 1
        # Home availability is the completed producer's complete_cycle.
        producer.completed = True
        producer.complete_cycle = 50
        assert rename(producer, cycle=50).outstanding == 0
        assert rename(producer, cycle=100).outstanding == 0
        assert rename(producer, cycle=49).outstanding == 1
        assert rename(producer, home=1, cycle=100).outstanding == 1
        # A remote cluster's is the arrival its copy recorded.
        producer.avail_cycle = {1: 60}
        assert rename(producer, home=1, cycle=60).outstanding == 0
        assert rename(producer, home=1, cycle=59).outstanding == 1
        assert rename(producer, home=2, cycle=100).outstanding == 1

    def test_waiters_partitioned_by_cluster(self):
        producer = make(0)
        a = rename(producer, home=0)
        # A store's second source is its data operand.
        b = rename(producer, make(2, op=OpClass.STORE, dest=-1,
                                  srcs=(1, 5)), home=2)
        assert producer.waiters[0] == [(a, False)]
        assert producer.waiters[2] == [(b, True)]
        assert (b.outstanding, b.data_outstanding) == (0, 1)

    def test_transfer_started_marks_the_last_of_sixteen_clusters(self):
        producer = make()
        Cluster(0).admit(producer)
        producer.completed = True
        producer.complete_cycle = 50
        assert producer.transfer_started == 0
        rename(producer, home=15, clusters=16)
        assert producer.transfer_started == 1 << 15


class TestIsProducer:
    def test_none_is_not_producer(self):
        consumer = rename(None)
        assert consumer.outstanding == 0
        assert consumer.producer_pcs == []

    def test_inflight_is_producer(self):
        producer = make()
        consumer = rename(producer)
        assert consumer.outstanding == 1
        assert consumer.producer_pcs == [producer.rec.pc]

    def test_committed_is_not_producer(self):
        instr = make()
        instr.committed = True
        consumer = rename(instr)
        assert consumer.outstanding == 0
        assert consumer.producer_pcs == []
        assert instr.waiters is None
