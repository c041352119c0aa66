"""Tests for the per-channel utilization report."""

import pytest

from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.network import Network
from repro.interconnect.plane import LinkComposition
from repro.interconnect.topology import Topology
from repro.power import parse_gating
from repro.telemetry import RingBufferSink, Telemetry
from repro.wires import WireClass


def make_network(wires=None, **kwargs):
    wires = wires or {WireClass.B: 144}
    return Network(Topology(4), LinkComposition(wires), **kwargs)


def keyed_network(wires=None):
    """A traced network: same queue path, plus per-segment telemetry."""
    net = make_network(wires, telemetry=Telemetry(sink=RingBufferSink()))
    assert net.telemetry.enabled
    return net


def drive(net, transfers, cycles=20):
    for cycle in range(cycles):
        net.deliver_due(cycle)
        for src, dst, at in transfers:
            if at == cycle:
                net.submit(Transfer(kind=TransferKind.OPERAND,
                                    src=src, dst=dst), cycle)
        net.tick(cycle)


class TestUtilizationReport:
    def test_empty_network_reports_nothing(self):
        assert make_network().utilization_report() == []

    def test_single_transfer_touches_both_channels(self):
        net = make_network()
        drive(net, [("c0", "c1", 0)])
        report = {(r.channel, r.wire_class): r
                  for r in net.utilization_report()}
        assert ("c0:out", WireClass.B) in report
        assert ("c1:in", WireClass.B) in report
        out = report[("c0:out", WireClass.B)]
        assert out.grants == 1
        assert out.bits == 72
        assert out.capacity_bits == 72
        assert out.utilization == pytest.approx(1.0)  # 1-cycle window

    def test_utilization_fraction_over_window(self):
        net = make_network()
        drive(net, [("c0", "c1", 0), ("c0", "c1", 4)])
        report = {r.channel: r for r in net.utilization_report()
                  if r.channel == "c0:out"}
        # Two 72-bit grants over a 5-cycle observed window.
        assert report["c0:out"].utilization == pytest.approx(2 / 5)

    def test_explicit_window(self):
        net = make_network()
        drive(net, [("c0", "c1", 0)])
        report = net.utilization_report(cycles=10)
        out = [r for r in report if r.channel == "c0:out"][0]
        assert out.utilization == pytest.approx(72 / 720)

    def test_rejects_bad_window(self):
        net = make_network()
        drive(net, [("c0", "c1", 0)])
        with pytest.raises(ValueError):
            net.utilization_report(cycles=0)

    def test_sorted_busiest_first(self):
        net = make_network()
        drive(net, [("c0", "c1", 0), ("c0", "c2", 1), ("c3", "c1", 2)])
        report = net.utilization_report()
        utils = [r.utilization for r in report]
        assert utils == sorted(utils, reverse=True)

    def test_planes_reported_separately(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36})
        for cycle in range(5):
            net.deliver_due(cycle)
            if cycle == 0:
                net.submit(Transfer(kind=TransferKind.OPERAND,
                                    src="c0", dst="c1"), 0)
                net.submit(Transfer(kind=TransferKind.MISPREDICT,
                                    src="c0", dst="cache"), 0)
            net.tick(cycle)
        planes = {(r.channel, r.wire_class)
                  for r in net.utilization_report()}
        assert ("c0:out", WireClass.B) in planes
        assert ("c0:out", WireClass.L) in planes

    def test_saturated_channel_reports_full_utilization(self):
        net = make_network()
        # Ten back-to-back transfers saturate c0:out for ten cycles.
        drive(net, [("c0", "c1", 0)] * 10, cycles=15)
        out = [r for r in net.utilization_report()
               if r.channel == "c0:out"][0]
        assert out.utilization == pytest.approx(1.0)

    def test_zero_traffic_with_explicit_window(self):
        # Regression: a zero-traffic network asked about a concrete
        # window must report an empty table, not divide by zero while
        # normalizing utilization or leakage shares.
        for net in (make_network(), keyed_network()):
            assert net.utilization_report(cycles=100) == []

    def test_zero_traffic_plane_is_absent_not_zero_divided(self):
        # An idle plane (L carries nothing here) simply has no rows;
        # the active plane's rows are unaffected.
        wires = {WireClass.B: 144, WireClass.L: 36}
        for net in (make_network(wires), keyed_network(wires)):
            drive(net, [("c0", "c1", 0)])
            report = net.utilization_report(cycles=10)
            assert report
            assert all(r.wire_class is WireClass.B for r in report)

    def test_zero_traffic_reports_match_across_engines(self):
        # Telemetry does not change the report, with and without
        # traffic.
        for transfers in ([], [("c0", "c1", 0), ("c3", "c1", 0)]):
            untraced, traced = make_network(), keyed_network()
            drive(untraced, transfers)
            drive(traced, transfers)
            assert (untraced.utilization_report(cycles=50)
                    == traced.utilization_report(cycles=50))

    def test_gated_zero_traffic_network_reports_cleanly(self):
        # Gating enabled but no traffic ever submitted: the power
        # manager has nothing to settle and the report stays empty.
        net = make_network({WireClass.B: 144, WireClass.L: 36},
                           gating=parse_gating("idle:drowsy=8,gate=32"))
        assert net.utilization_report(cycles=100) == []
        assert net.power.gated_share(0) == 0.0
        assert net.power.leakage_energy(0) == 0.0

    def test_tie_order_independent_of_traffic_order(self):
        # Regression (tests/test_code_hazards.py's SIM104 check):
        # equal-utilization rows used to tie-break by dict insertion
        # order, i.e. by which channel saw traffic first.  Two mirrored
        # networks whose only difference is submission order must
        # render identical reports.
        first = make_network()
        drive(first, [("c0", "c1", 0), ("c3", "c2", 0)])
        second = make_network()
        drive(second, [("c3", "c2", 0), ("c0", "c1", 0)])
        def rows(net):
            return [(r.channel, r.wire_class, r.utilization)
                    for r in net.utilization_report()]

        assert rows(first) == rows(second)
        # All four rows tie at full utilization: order must be the
        # deterministic (channel, plane) sort, not insertion order.
        assert [r[0] for r in rows(first)] == sorted(
            r[0] for r in rows(first)
        )
