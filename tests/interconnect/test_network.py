"""Tests for network queuing, arbitration, contention and delivery."""

import pytest

from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.network import Network
from repro.interconnect.plane import LinkComposition
from repro.interconnect.topology import Topology
from repro.wires import WireClass


def make_network(wires=None, flags=None, topology=None):
    wires = wires or {WireClass.B: 144}
    topology = topology or Topology(4)
    return Network(topology, LinkComposition(wires), flags)


def arrivals(net):
    """(transfer, cycle) of every complete arrival, in delivery order."""
    log = []
    for kind in TransferKind:
        net.final_handlers[kind] = lambda t, c: log.append((t, c))
    return log


def cycles(log):
    return [cycle for _, cycle in log]


class TestBasicDelivery:
    def test_operand_arrives_after_crossbar_latency(self):
        net = make_network()
        seen = arrivals(net)
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        net.submit(t, cycle=0)
        for cycle in range(5):
            net.deliver_due(cycle)
            net.tick(cycle)
        assert cycles(seen) == [2]  # B-Wire crossbar latency

    def test_idle_network(self):
        net = make_network()
        assert net.idle()
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        net.submit(t, 0)
        assert not net.idle()

    def test_next_event_cycle(self):
        net = make_network()
        assert net.next_event_cycle() is None
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        net.submit(t, 0)
        net.tick(0)
        assert net.next_event_cycle() == 2


class TestContention:
    def test_one_transfer_per_cycle_per_cluster_link(self):
        """72 B-Wires per direction carry exactly one 72-bit operand."""
        net = make_network()
        seen = arrivals(net)
        for i in range(3):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c1", seq=i), 0)
        for cycle in range(8):
            net.deliver_due(cycle)
            net.tick(cycle)
        assert cycles(seen) == [2, 3, 4]  # serialized, one grant per cycle

    def test_cache_link_carries_two_per_cycle(self):
        net = make_network()
        seen = arrivals(net)
        for i in range(4):
            net.submit(Transfer(kind=TransferKind.LOAD_DATA, src="cache",
                                dst=f"c{i}", seq=i), 0)
        for cycle in range(8):
            net.deliver_due(cycle)
            net.tick(cycle)
        # cache:out has 144 bits/cycle = two 72-bit transfers.
        assert cycles(seen) == [2, 2, 3, 3]

    def test_distinct_sources_do_not_contend(self):
        net = make_network()
        seen = arrivals(net)
        for i in range(4):
            net.submit(Transfer(kind=TransferKind.OPERAND, src=f"c{i}",
                                dst="cache", seq=i), 0)
        for cycle in range(6):
            net.deliver_due(cycle)
            net.tick(cycle)
        # cache:in accepts 2/cycle; four sources serialize into pairs.
        assert sorted(cycles(seen)) == [2, 2, 3, 3]

    def test_planes_are_independent_resources(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36})
        seen = arrivals(net)
        # Saturate B with operands, then a mispredict on L sails through.
        for i in range(2):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c1", seq=i), 0)
        net.submit(Transfer(kind=TransferKind.MISPREDICT, src="c0",
                            dst="cache", seq=9), 0)
        for cycle in range(6):
            net.deliver_due(cycle)
            net.tick(cycle)
        # L-Wire latency 1, unaffected by the B queue.
        assert (TransferKind.MISPREDICT, 1) in [(t.kind, c) for t, c in seen]

    def test_fifo_order_within_plane(self):
        net = make_network()
        seen = arrivals(net)
        for i in range(5):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c1", seq=i), 0)
        for cycle in range(10):
            net.deliver_due(cycle)
            net.tick(cycle)
        assert [t.seq for t, _ in seen] == [0, 1, 2, 3, 4]


class TestSplitTransfers:
    def test_partial_then_full_arrival(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36})
        events = []
        kind = TransferKind.LOAD_ADDRESS
        net.partial_handlers[kind] = lambda t, c: events.append(("ls", c))
        net.final_handlers[kind] = lambda t, c: events.append(("full", c))
        net.submit(Transfer(kind=kind, src="c0", dst="cache"), 0)
        for cycle in range(6):
            net.deliver_due(cycle)
            net.tick(cycle)
        assert events == [("ls", 1), ("full", 2)]
        assert net.stats.split_transfers == 1

    def test_narrow_mispredict_delays_final(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36})
        seen = arrivals(net)
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1",
                     narrow_predicted=True, narrow_actual=False)
        net.submit(t, 0)
        for cycle in range(8):
            net.deliver_due(cycle)
            net.tick(cycle)
        # Bulk copy submitted one cycle late -> arrives at 1 + 2.
        assert cycles(seen) == [3]


class TestEnergyAccounting:
    def test_dynamic_energy_proportional_to_bits_and_wire_class(self):
        net = make_network({WireClass.B: 144, WireClass.PW: 288})
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                            dst="c1"), 0)
        net.submit(Transfer(kind=TransferKind.STORE_DATA, src="c0",
                            dst="cache"), 0)
        for cycle in range(6):
            net.deliver_due(cycle)
            net.tick(cycle)
        expected = 72 * 0.58 + 72 * 0.30  # B operand + PW store data
        assert net.stats.dynamic_energy() == pytest.approx(expected)

    def test_ring_transfers_weighted_by_hops(self):
        topo = Topology(16)
        net = make_network(topology=topo)
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                            dst="c8"), 0)  # 2 hops -> weight 3
        for cycle in range(15):
            net.deliver_due(cycle)
            net.tick(cycle)
        assert net.stats.dynamic_energy() == pytest.approx(3 * 72 * 0.58)

    def test_wire_inventory_model_i_4cluster(self):
        net = make_network()
        inventory = net.wire_inventory()
        # 4 cluster links x 144 + cache link x 288.
        assert inventory == {WireClass.B: 4 * 144 + 288}

    def test_leakage_scales_with_cycles(self):
        net = make_network()
        assert net.leakage_energy(200) == pytest.approx(
            2 * net.leakage_energy(100)
        )

    def test_transfers_recorded_per_kind(self):
        net = make_network()
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1"), 0)
        net.tick(0)
        assert net.stats.by_kind[TransferKind.OPERAND] == 1


class TestRingContention:
    def test_ring_segment_is_shared(self):
        """Three same-direction inter-group transfers compete for the
        same 2x-wide ring segment: two fit in a cycle, the third waits."""
        net = make_network(topology=Topology(16))
        seen = arrivals(net)
        for src, dst, payload in (("c0", "c4", "a"), ("c1", "c5", "b"),
                                  ("c2", "c6", "c")):
            net.submit(Transfer(kind=TransferKind.OPERAND, src=src, dst=dst,
                                payload=payload), 0)
        for cycle in range(12):
            net.deliver_due(cycle)
            net.tick(cycle)
        times = {t.payload: c for t, c in seen}
        assert times["a"] == times["b"] == 6  # crossbar 2 + hop 4
        assert times["c"] == 7  # waited a cycle for ring:0>1
