"""Coverage for measurement control, config overrides, and counters."""

import itertools

from repro.core.config import InterconnectConfig, ProcessorConfig, wire_counts
from repro.core.models import model
from repro.core.processor import ClusteredProcessor
from repro.core.simulation import build_processor, simulate_benchmark
from repro.frontend.fetch import FetchUnit
from repro.workloads.annotate import AnnotatedTrace
from repro.workloads.trace import InstructionRecord, OpClass


def alu(pc, dest, srcs=()):
    return InstructionRecord(pc=pc, op=OpClass.IALU, dest=dest, srcs=srcs,
                             value_width=32)


def make_cpu(records, **cfg):
    config = ProcessorConfig(num_clusters=4, **cfg)
    icfg = InterconnectConfig(wires=wire_counts(B=144))
    return ClusteredProcessor(config, icfg, itertools.cycle(records))


class TestMeasurementControl:
    def test_reset_measurement_zeroes_stats(self):
        cpu = make_cpu([alu(0x400000 + 4 * i, dest=8 + i) for i in range(8)])
        cpu.run(100)
        cpu.reset_measurement()
        assert cpu.stats.committed == 0
        assert cpu.stats.cycles == 0
        assert cpu.network.stats.total_transfers() == 0

    def test_warmup_then_measure(self):
        records = [alu(0x400000 + 4 * i, dest=8 + i) for i in range(8)]
        cpu = make_cpu(records)
        stats = cpu.run(100, warmup=50)
        assert 100 <= stats.committed < 160
        # Architecture state persists across the reset.
        assert cpu.cycle > stats.cycles


class TestFetchStall:
    def test_stall_until_blocks_fetch(self):
        fetch = FetchUnit(AnnotatedTrace([alu(0x400000 + 4 * i, dest=5)
                                          for i in range(20)]))
        fetch.stall_until(10)
        assert fetch.tick(5) == 0
        assert fetch.tick(10) > 0

    def test_stall_until_never_moves_backwards(self):
        fetch = FetchUnit(AnnotatedTrace([alu(0x400000, dest=5)]))
        fetch.stall_until(10)
        fetch.stall_until(3)
        assert fetch.tick(9) == 0


class TestConfigOverride:
    def test_simulate_benchmark_accepts_config(self):
        cfg = ProcessorConfig(num_clusters=4,
                              memory_dependence_speculation=True)
        run = simulate_benchmark(model("I").config, "gzip",
                                 instructions=600, warmup=150, config=cfg)
        assert run.ipc > 0

    def test_sixteen_cluster_processor_end_to_end(self):
        cpu = build_processor(model("X").config, "mesa", num_clusters=16)
        stats = cpu.run(1200, warmup=300)
        assert stats.committed >= 1200
        assert len(cpu.clusters) == 16


class TestSelectorCounters:
    def test_pw_rule_counters_populate(self):
        cpu = build_processor(model("V").config, "gzip")
        cpu.run(2500, warmup=500)
        selector = cpu.network.selector
        assert selector.pw_store_transfers > 0
        # Ready-operand and diverted traffic occur on realistic streams.
        assert selector.pw_ready_transfers >= 0
        total_pw_rules = (selector.pw_ready_transfers
                          + selector.pw_store_transfers
                          + selector.pw_diverted_transfers)
        assert total_pw_rules > 0

    def test_operand_narrow_share_tracked(self):
        cpu = build_processor(model("I").config, "gzip")
        cpu.run(2500, warmup=500)
        selector = cpu.network.selector
        assert selector.operand_transfers > 0
        assert 0 <= selector.operand_narrow <= selector.operand_transfers


class TestPrewarm:
    def test_prewarm_loads_working_set_into_l2(self):
        cpu = build_processor(model("I").config, "gzip")
        # gzip's working set is 256 KB starting at DATA_BASE.
        assert cpu.hierarchy.l2.contains(0x1000_0000)
        assert cpu.hierarchy.l2.contains(0x1000_0000 + 255 * 1024)
        # The stack region lands in L1 as well.
        assert cpu.hierarchy.l1.contains(0x7FF0_0000)

    def test_prewarm_empty_footprint_is_noop(self):
        cpu = make_cpu([alu(0x400000, dest=8)])
        cpu.prewarm([])
        assert cpu.hierarchy.l1.accesses == 0


class TestFoldedNames:
    def test_old_module_names_bind_the_current_classes(self):
        import importlib

        from repro._folded import FOLDED

        for name, classes in FOLDED.items():
            module = importlib.import_module(name)
            for old, cls in classes.items():
                assert getattr(module, old) is cls
