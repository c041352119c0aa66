"""Tests for the clustered-processor cycle loop on tiny hand-made streams."""

import itertools

import pytest

from repro.core.config import InterconnectConfig, ProcessorConfig, wire_counts
from repro.core.processor import ClusteredProcessor
from repro.workloads.trace import InstructionRecord, OpClass


def alu(pc, dest, srcs=()):
    return InstructionRecord(pc=pc, op=OpClass.IALU, dest=dest, srcs=srcs,
                             value_width=32)


def narrow_alu(pc, dest, srcs=()):
    return InstructionRecord(pc=pc, op=OpClass.IALU, dest=dest, srcs=srcs,
                             value_width=8)


def load(pc, dest, addr, srcs=(1,)):
    return InstructionRecord(pc=pc, op=OpClass.LOAD, dest=dest, srcs=srcs,
                             addr=addr, value_width=32)


def store(pc, addr, srcs=(1, 2)):
    return InstructionRecord(pc=pc, op=OpClass.STORE, srcs=srcs, addr=addr)


def make_cpu(records, wires=None, num_clusters=4, repeat=True,
             telemetry=None, **cfg):
    config = ProcessorConfig(num_clusters=num_clusters, **cfg)
    icfg = InterconnectConfig(wires=wires or wire_counts(B=144))
    supply = itertools.cycle(records) if repeat else iter(records)
    return ClusteredProcessor(config, icfg, supply, telemetry=telemetry)


class TestBasicExecution:
    def test_independent_alus_commit(self):
        records = [alu(0x400000 + 4 * i, dest=8 + i) for i in range(8)]
        cpu = make_cpu(records)
        stats = cpu.run(100)
        assert stats.committed == 100
        assert stats.ipc > 1.0

    def test_serial_chain_is_slow(self):
        """Every instruction depends on the previous one."""
        records = [alu(0x400000 + 4 * i, dest=9, srcs=(9,))
                   for i in range(8)]
        cpu = make_cpu(records)
        stats = cpu.run(100)
        assert stats.ipc <= 1.05

    def test_parallel_beats_serial(self):
        serial = make_cpu([alu(0x400000, dest=9, srcs=(9,))])
        parallel = make_cpu(
            [alu(0x400000 + 4 * i, dest=8 + i, srcs=(1,)) for i in range(8)]
        )
        s = serial.run(200)
        p = parallel.run(200)
        assert p.ipc > s.ipc * 1.5

    def test_commit_is_in_order_and_complete(self):
        records = [alu(0x400000 + 4 * i, dest=8 + (i % 16)) for i in range(12)]
        cpu = make_cpu(records)
        stats = cpu.run(500)
        assert stats.committed == 500
        assert cpu.stats.cycles > 0


class TestCrossClusterCommunication:
    def test_dependent_pair_in_different_clusters_pays_latency(self):
        """A long chain of two-source instructions forces cross-cluster
        operand transfers over B-Wires."""
        records = [
            alu(0x400000 + 4 * i, dest=8 + (i % 20),
                srcs=(8 + ((i + 7) % 20), 8 + ((i + 13) % 20)))
            for i in range(40)
        ]
        cpu = make_cpu(records)
        stats = cpu.run(400)
        assert stats.cross_cluster_operands > 0
        assert cpu.network.stats.total_transfers() > 0

    def test_doubling_latency_hurts_communication_bound_code(self):
        records = [
            alu(0x400000 + 4 * i, dest=8 + (i % 20),
                srcs=(8 + ((i + 7) % 20), 8 + ((i + 13) % 20)))
            for i in range(40)
        ]
        fast = make_cpu(records).run(500)
        slow = make_cpu(records, latency_scale=3.0).run(500)
        assert slow.ipc < fast.ipc


class TestMemoryPipeline:
    def test_loads_complete_via_cache(self, traced):
        records = [load(0x400000 + 4 * i, dest=8 + i, addr=0x1000 + 8 * i)
                   for i in range(4)]
        cpu = make_cpu(records, telemetry=traced.telemetry())
        stats = cpu.run(80)
        assert stats.loads == 80
        assert traced.count(cpu, "cache_access") >= 80

    def test_store_then_commit(self):
        records = [store(0x400000, addr=0x2000, srcs=(1, 2)),
                   alu(0x400004, dest=9)]
        cpu = make_cpu(records)
        stats = cpu.run(60)
        # The stream alternates store/ALU, so half the committed
        # instructions are stores (commit may slightly overshoot the
        # requested count within its last cycle).
        assert stats.stores == stats.committed // 2

    def test_store_load_forwarding_counted(self):
        records = [
            store(0x400000, addr=0x3000, srcs=(1, 2)),
            load(0x400004, dest=9, addr=0x3000),
        ]
        cpu = make_cpu(records)
        cpu.run(100)
        assert cpu.lsq.true_forwards > 0

    def test_partial_pipeline_only_with_lwires(self):
        plain = make_cpu([load(0x400000, dest=9, addr=0x1000)])
        fancy = make_cpu([load(0x400000, dest=9, addr=0x1000)],
                         wires=wire_counts(B=144, L=36))
        assert not plain.lsq.partial_enabled
        assert fancy.lsq.partial_enabled
        fancy.run(50)
        assert fancy.lsq.early_ram_starts > 0


class TestNarrowOperandPath:
    def test_narrow_results_use_lwires(self):
        """A hot narrow-producing pc trains the width predictor; its
        cross-cluster copies then ride L-Wires."""
        records = [
            narrow_alu(0x400000 + 4 * i, dest=8 + (i % 20),
                       srcs=(8 + ((i + 7) % 20), 8 + ((i + 13) % 20)))
            for i in range(40)
        ]
        cpu = make_cpu(records, wires=wire_counts(B=144, L=36))
        cpu.run(600)
        from repro.wires import WireClass
        assert cpu.network.stats.transfers_on(WireClass.L) > 0
        assert cpu.narrow_predictor.coverage > 0.5


class TestDeterminism:
    def test_same_input_same_result(self):
        records = [alu(0x400000 + 4 * i, dest=8 + (i % 16),
                       srcs=(8 + ((i + 5) % 16),)) for i in range(32)]
        a = make_cpu(records).run(300)
        b = make_cpu(records).run(300)
        assert a.cycles == b.cycles
        assert a.committed == b.committed


class TestResourceLimits:
    def test_tiny_rob_throttles(self):
        records = [alu(0x400000 + 4 * i, dest=8 + i) for i in range(8)]
        big = make_cpu(records, rob_size=480).run(300)
        small = make_cpu(records, rob_size=8).run(300)
        assert small.ipc <= big.ipc

    def test_run_validates(self):
        cpu = make_cpu([alu(0x400000, dest=9)])
        with pytest.raises(ValueError):
            cpu.run(0)

    def test_max_cycles_bounds_run(self):
        cpu = make_cpu([alu(0x400000, dest=9, srcs=(9,))])
        stats = cpu.run(10_000, max_cycles=50)
        assert stats.cycles <= 50
