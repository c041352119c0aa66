"""Focused behaviour tests of the processor's wire-management paths."""

import itertools

from repro.core.config import InterconnectConfig, ProcessorConfig, wire_counts
from repro.core.models import model
from repro.core.processor import ClusteredProcessor
from repro.core.simulation import build_processor
from repro.interconnect.message import TransferKind
from repro.interconnect.selection import PolicyFlags
from repro.wires import WireClass
from repro.workloads.trace import InstructionRecord, OpClass


def alu(pc, dest, srcs=(), width=32):
    return InstructionRecord(pc=pc, op=OpClass.IALU, dest=dest, srcs=srcs,
                             value_width=width)


def branch(pc, taken, target=0x500000):
    return InstructionRecord(pc=pc, op=OpClass.BRANCH, srcs=(1,),
                             taken=taken, target=target)


def load(pc, dest, addr):
    return InstructionRecord(pc=pc, op=OpClass.LOAD, dest=dest, srcs=(1,),
                             addr=addr, value_width=32)


def store(pc, addr, srcs=(1, 2)):
    return InstructionRecord(pc=pc, op=OpClass.STORE, srcs=srcs, addr=addr)


def make_cpu(records, wires=None, flags=None, repeat=True, **cfg):
    config = ProcessorConfig(num_clusters=4, **cfg)
    icfg = InterconnectConfig(
        wires=wires or wire_counts(B=144),
        flags=flags or PolicyFlags(),
    )
    supply = itertools.cycle(records) if repeat else iter(records)
    return ClusteredProcessor(config, icfg, supply)


class TestMispredictPath:
    def _mispredict_stream(self):
        """Branches whose direction alternates erratically enough that
        some mispredict, each followed by filler."""
        records = []
        pattern = [True, True, False, True, False, False, True, False]
        for i, taken in enumerate(pattern * 3):
            records.append(branch(0x400000 + 8 * i, taken,
                                  target=0x600000 + 64 * i))
            records.append(alu(0x400004 + 8 * i, dest=8 + (i % 16)))
        return records

    def test_redirects_traverse_the_network(self):
        cpu = make_cpu(self._mispredict_stream())
        stats = cpu.run(400)
        assert stats.redirects > 0
        assert cpu.network.stats.by_kind.get(TransferKind.MISPREDICT,
                                             0) > 0

    def test_mispredict_penalty_at_least_12_cycles(self):
        """Table 1: 'at least 12 cycles'.  A branch with deterministic
        but pattern-free outcomes mispredicts often; each redirect costs
        at least resolve + signal + refill cycles."""
        import random
        rng = random.Random(0)
        records = [branch(0x400000, rng.random() < 0.5,
                          0x500000 + 64 * i) for i in range(64)]
        cpu = make_cpu(records)
        stats = cpu.run(200)
        assert stats.redirects >= 20
        # Redirect stalls dominate: at least 12 cycles per redirect on
        # average (correctly predicted branches add ~1 cycle each).
        assert stats.cycles >= 12 * stats.redirects

    def test_lwire_mispredict_signal_shortens_stall(self):
        stream = self._mispredict_stream()
        base = make_cpu(stream).run(600)
        fast = make_cpu(stream, wires=wire_counts(B=144, L=36)).run(600)
        assert fast.cycles <= base.cycles


class TestPWSteeringPaths:
    def test_ready_at_dispatch_operands_ride_pw(self):
        """Values already sitting in a remote register file when their
        consumer dispatches travel on PW-Wires (the paper's first
        criterion).  A realistic stream triggers the case naturally."""
        from repro.workloads import TraceGenerator, profile
        gen = TraceGenerator(profile("gzip"), seed=42)
        config = ProcessorConfig(num_clusters=4)
        icfg = InterconnectConfig(wires=wire_counts(B=144, PW=288))
        cpu = ClusteredProcessor(config, icfg, gen.stream_forever())
        cpu.prewarm(gen.data_footprint())
        cpu.run(3000, warmup=500)
        assert cpu.network.selector.pw_ready_transfers > 0

    def test_store_data_rides_pw(self):
        records = [store(0x400000, addr=0x2000), alu(0x400004, dest=9)]
        cpu = make_cpu(records, wires=wire_counts(B=144, PW=288))
        cpu.run(200)
        stats = cpu.network.stats
        assert stats.by_kind.get(TransferKind.STORE_DATA, 0) > 0
        assert stats.transfers_on(WireClass.PW) >= stats.by_kind[
            TransferKind.STORE_DATA
        ] * 0.9

    def test_pw_criteria_disabled_all_on_b(self):
        flags = PolicyFlags(pw_ready_operand=False, pw_store_data=False,
                            pw_load_balance=False)
        records = [store(0x400000, addr=0x2000), alu(0x400004, dest=9)]
        cpu = make_cpu(records, wires=wire_counts(B=144, PW=288),
                       flags=flags)
        cpu.run(200)
        assert cpu.network.stats.transfers_on(WireClass.PW) == 0


class TestPartialAddressPath:
    def test_split_addresses_on_lwires(self):
        records = [load(0x400000 + 4 * i, dest=8 + i, addr=0x3000 + 8 * i)
                   for i in range(4)]
        cpu = make_cpu(records, wires=wire_counts(B=144, L=36))
        cpu.run(120)
        assert cpu.network.stats.split_transfers > 0
        assert cpu.lsq.early_ram_starts > 0

    def test_partial_flag_off_means_no_split(self):
        flags = PolicyFlags(lwire_partial_address=False)
        records = [load(0x400000, dest=8, addr=0x3000)]
        cpu = make_cpu(records, wires=wire_counts(B=144, L=36),
                       flags=flags)
        cpu.run(60)
        assert cpu.network.stats.split_transfers == 0
        assert cpu.lsq.early_ram_starts == 0
        assert not cpu.lsq.partial_enabled


class TestNarrowMispredictPath:
    def test_inconsistent_width_pcs_cause_reissues(self):
        """A pc that alternates narrow/wide results saturates then
        deceives the width predictor, exercising the reissue path."""
        records = []
        for i in range(16):
            width = 8 if i % 4 else 32
            records.append(
                InstructionRecord(pc=0x400000, op=OpClass.IALU, dest=8,
                                  srcs=(1,), value_width=width)
            )
            records.append(alu(0x400004 + 4 * i, dest=9 + (i % 8),
                               srcs=(8, 8)))
        cpu = make_cpu(records, wires=wire_counts(B=144, L=36))
        cpu.run(600)
        assert cpu.network.selector.narrow_mispredicts > 0


class TestEnergyAccounting:
    def test_measured_window_excludes_warmup(self):
        records = [alu(0x400000 + 4 * i, dest=8 + (i % 16),
                       srcs=(8 + ((i + 5) % 16),)) for i in range(32)]
        cpu_a = make_cpu(records)
        cpu_a.run(200, warmup=200)
        cpu_b = make_cpu(records)
        cpu_b.run(400, warmup=0)
        assert (cpu_a.network.stats.dynamic_energy()
                < cpu_b.network.stats.dynamic_energy())

    def test_warmup_reset_keeps_node_scaled_specs(self):
        # The end-of-warmup reset zeroes the counters but must keep the
        # design point's node-scaled catalog: measured dynamic energy is
        # weighed with it, not with the canonical 45 nm Table 2.
        interconnect = model("dp@n16:B144+L36:cw1").config
        cpu = build_processor(interconnect, "gzip")
        cpu.run(300, warmup=100)
        assert (cpu.network.stats.specs
                == interconnect.build_composition().specs_map())

    def test_leakage_uses_measured_cycles(self):
        records = [alu(0x400000, dest=8)]
        cpu = make_cpu(records)
        stats = cpu.run(100)
        leak = cpu.network.leakage_energy(stats.cycles)
        # 4 cluster links x 144 + cache link 288 B-Wires.
        expected_per_cycle = (4 * 144 + 288) * 0.55
        assert leak == stats.cycles * expected_per_cycle
