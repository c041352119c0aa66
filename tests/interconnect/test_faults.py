"""Network-level fault injection: kills, reroutes, NACK/retransmission."""

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.interconnect.errors import ConfigError, UnroutableError
from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.network import Network
from repro.interconnect.plane import LinkComposition
from repro.interconnect.topology import Topology
from repro.wires import WireClass


def make_network(wires, spec_text=None, seed=0, injector=None):
    if spec_text is not None:
        injector = FaultInjector(FaultSpec.parse(spec_text), seed=seed)
    return Network(Topology(4), LinkComposition(wires),
                   injector=injector)


def arrivals(net):
    """Arrival cycle of every complete transfer, in delivery order."""
    log = []
    for kind in TransferKind:
        net.final_handlers[kind] = lambda t, c: log.append(c)
    return log


def run_cycles(net, upto):
    for cycle in range(upto):
        net.deliver_due(cycle)
        net.tick(cycle)
    net.deliver_due(upto)


class ScriptedInjector(FaultInjector):
    """Corrupts the first ``fail_attempts`` attempts on given planes."""

    def __init__(self, fail_attempts, planes=None):
        # A tiny non-zero BER arms the corruption path; draws are then
        # overridden below, deterministically.
        super().__init__(FaultSpec.parse("ber=1e-12;retries=2"), seed=0)
        self.fail_attempts = fail_attempts
        self.planes = planes

    def corrupts(self, wire_class, kind, seq, bits, hops, attempt,
                 leading=False):
        if self.planes is not None and wire_class not in self.planes:
            return False
        return attempt < self.fail_attempts


class TestPermanentKills:
    def test_lwire_kill_flips_steering_to_bulk(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36},
                           "kill=L@*@0")
        seen = arrivals(net)
        t = Transfer(kind=TransferKind.MISPREDICT, src="c0", dst="c1")
        net.submit(t, cycle=0)
        run_cycles(net, 6)
        assert seen == [2]  # B-Wire latency, not the 1-cycle L-Wire
        assert net.selector.degraded_selections == 1
        assert net.degradation_report().planes_killed == len(
            net.topology.channels)

    def test_lwire_kill_disables_address_split(self):
        net = make_network({WireClass.B: 144, WireClass.L: 36},
                           "kill=L@*@0")
        net.submit(Transfer(kind=TransferKind.LOAD_ADDRESS, src="c0",
                            dst="cache"), 0)
        assert net.stats.split_transfers == 0

    def test_queued_segment_rerouted_when_plane_dies(self):
        net = make_network({WireClass.B: 144, WireClass.PW: 288},
                           "kill=B@c0@1")
        seen = arrivals(net)
        for i in range(3):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c1", seq=i), 0)
        run_cycles(net, 12)
        assert len(seen) == 3
        report = net.degradation_report()
        assert report.degraded_reroutes >= 1
        assert ("c0:out", WireClass.B, 1) in net.dead_planes()

    def test_reroute_into_queue_drained_same_tick_is_not_stranded(self):
        # Regression: at cycle 1 the OPERAND drains (c0:out, B), then
        # the queued MISPREDICTs on the dying L plane are rerouted onto
        # that queue.  They used to be appended after the queue had left
        # the active set, so they were never arbitrated again.
        net = make_network({WireClass.B: 144, WireClass.L: 36},
                           "kill=L@c0@1")
        seen = arrivals(net)
        for i in range(4):
            net.submit(Transfer(kind=TransferKind.MISPREDICT, src="c0",
                                dst="c1", seq=i), 0)
        for cycle in range(40):
            net.deliver_due(cycle)
            if cycle == 1:
                net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                    dst="c1", seq=4), 1)
            net.tick(cycle)
        assert len(seen) == 5
        assert max(seen) == 4
        assert net.idle()

    def test_ring_kill_reroutes_queued_multi_hop_segment_on_every_hop(self):
        # c0 -> c4 crosses c0:out, ring:0>1 and c4:in.  B dies on the
        # ring segment at cycle 2 while three of five OPERANDs still
        # wait on (c0:out, B); each must then be granted on PW on every
        # hop, and the dead plane must carry nothing more.
        injector = FaultInjector(FaultSpec.parse("kill=B@ring:0-1@2"))
        net = Network(Topology(16),
                      LinkComposition({WireClass.B: 144,
                                       WireClass.PW: 288}),
                      injector=injector)
        seen = arrivals(net)
        hops = ("c0:out", "ring:0>1", "c4:in")
        for i in range(5):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c4", seq=i), 0)

        def rows():
            return {(r.channel, r.wire_class): (r.grants, r.bits)
                    for r in net.utilization_report(cycles=40)}

        run_cycles(net, 2)
        assert {hop: rows()[(hop, WireClass.B)] for hop in hops} == {
            hop: (2, 144) for hop in hops}
        before_kill = rows()
        for cycle in range(2, 40):
            net.deliver_due(cycle)
            net.tick(cycle)
        after = rows()
        assert len(seen) == 5
        assert net.degradation_report().degraded_reroutes == 3
        for hop in hops:
            assert after[(hop, WireClass.B)] == before_kill[
                (hop, WireClass.B)]
            assert after[(hop, WireClass.PW)] == (3, 216)
        assert {key for key in after if key[1] is WireClass.B} == {
            (hop, WireClass.B) for hop in hops}

    def test_unroutable_when_no_plane_survives(self):
        net = make_network({WireClass.B: 144}, "kill=B@*@0")
        with pytest.raises(UnroutableError, match="no surviving"):
            net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                dst="c1"), 0)

    def test_on_plane_kill_callback_fires_once_per_plane(self):
        net = make_network({WireClass.B: 144, WireClass.PW: 288},
                           "kill=B@c0@3")
        killed = []
        net.on_plane_kill = lambda ch, wc, cy: killed.append((ch, wc, cy))
        run_cycles(net, 8)
        assert sorted(ch for ch, _, _ in killed) == ["c0:in", "c0:out"]
        assert all(wc is WireClass.B and cy == 3 for _, wc, cy in killed)

    def test_a_second_kill_reaches_a_path_already_planned_around_one(self):
        # The first submit memoizes the path's dead planes ({L}); the
        # PW kill must clear that memo, or store data keeps riding PW.
        net = make_network(
            {WireClass.B: 144, WireClass.PW: 288, WireClass.L: 36},
            "kill=L@*@10;kill=PW@*@20")
        channels = net._route("c0", "cache").channels

        def planes_of(transfer):
            return {chan.key[1] for chan in net._active
                    for item in chan.queue[chan.head:]
                    if item.transfer is transfer}

        early = Transfer(kind=TransferKind.STORE_DATA, src="c0",
                         dst="cache")
        net.submit(early, 15)
        assert planes_of(early) == {WireClass.PW}
        assert net._dead_planes_on(channels) == {WireClass.L}
        late = Transfer(kind=TransferKind.STORE_DATA, src="c0", dst="cache")
        net.submit(late, 25)
        assert net._dead_planes_on(channels) == {WireClass.L, WireClass.PW}
        assert planes_of(late) == {WireClass.B}


class TestTransientCorruption:
    def test_corrupted_segment_retransmitted_then_delivered(self):
        net = make_network({WireClass.B: 144},
                           injector=ScriptedInjector(fail_attempts=1))
        seen = arrivals(net)
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1"),
                   0)
        run_cycles(net, 20)
        report = net.degradation_report()
        assert report.corrupted_segments == 1
        assert report.retransmissions == 1
        # NACK round trip: granted at 0, retried at 0 + 2*2 + 1 = 5,
        # clean delivery two cycles later.
        assert seen == [7]
        retx = [r for r in net.utilization_report(cycles=20)
                if r.retransmissions]
        assert retx and retx[0].channel == "c0:out"

    def test_corruption_still_burns_energy(self):
        clean = make_network({WireClass.B: 144})
        clean.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                              dst="c1"), 0)
        run_cycles(clean, 20)

        net = make_network({WireClass.B: 144},
                           injector=ScriptedInjector(fail_attempts=1))
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                            dst="c1"), 0)
        run_cycles(net, 20)
        assert (net.stats.dynamic_energy()
                > clean.stats.dynamic_energy())

    def test_retry_budget_exhaustion_escalates_to_kill(self):
        net = make_network({WireClass.B: 144, WireClass.PW: 288},
                           injector=ScriptedInjector(fail_attempts=99,
                                                     planes={WireClass.B}))
        seen = arrivals(net)
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1"),
                   0)
        run_cycles(net, 60)
        report = net.degradation_report()
        assert report.retry_escalations == 1
        assert report.retransmissions == net.injector.spec.retry_budget
        assert ("c0:out", WireClass.B) in [
            (ch, wc) for ch, wc, _ in net.dead_planes()
        ]
        assert len(seen) == 1  # delivered via the surviving PW plane


class TestConfigErrors:
    def test_kill_of_absent_plane_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="no such plane"):
            make_network({WireClass.B: 144}, "kill=L@*@0")

    def test_kill_of_unknown_link_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="no such link"):
            make_network({WireClass.B: 144}, "kill=B@c9@0")

    def test_composition_plane_raises_config_error_not_key_error(self):
        composition = LinkComposition({WireClass.B: 144})
        with pytest.raises(ConfigError, match="no L-Wires plane"):
            composition.plane(WireClass.L)

    def test_config_error_is_a_value_error(self):
        # Call sites that caught KeyError/ValueError keep working.
        assert issubclass(ConfigError, ValueError)


class TestDeterminism:
    def test_identical_seeds_identical_arrivals(self):
        def faulted_run():
            net = make_network({WireClass.B: 144, WireClass.PW: 288},
                               "ber=1e-3", seed=5)
            seen = arrivals(net)
            for i in range(40):
                net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                                    dst="c1", seq=i), i)
            run_cycles(net, 400)
            return seen, net.degradation_report()

        first, report_a = faulted_run()
        second, report_b = faulted_run()
        assert first == second
        assert report_a == report_b
        assert report_a.retransmissions > 0

    def test_next_event_includes_retries_and_kills(self):
        net = make_network({WireClass.B: 144, WireClass.PW: 288},
                           "kill=B@c0@30")
        assert net.next_event_cycle() == 30
        net.injector = ScriptedInjector(fail_attempts=1)
        net._ber_active = True
        net.submit(Transfer(kind=TransferKind.OPERAND, src="c0",
                            dst="c1"), 0)
        net.tick(0)
        assert not net.idle()
        assert net.next_event_cycle() == 5  # the pending retransmission
