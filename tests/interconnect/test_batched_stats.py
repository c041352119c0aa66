"""Round-trip coverage of the tallied grant accounting.

:class:`InterconnectStats` tallies grants per (plane, bits, weight)
shape and folds them into its counters on first read.  These
tests pin the fold: tallied stats must agree with stats folded after
every single grant on *every* observable -- counters, insertion order
(which fixes the float summation order of ``dynamic_energy``) and energy
totals -- and a traced run must report what an untraced one does.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import build_processor
from repro.interconnect.stats import InterconnectStats
from repro.telemetry import RingBufferSink, Telemetry
from repro.wires import WireClass

#: A grant stream touching several planes in interleaved order, with
#: repeated shapes (the tally's whole point) and a zero-bit edge.
GRANTS = [
    (WireClass.B, 72, 1),
    (WireClass.L, 12, 1),
    (WireClass.B, 72, 1),
    (WireClass.PW, 72, 2),
    (WireClass.B, 24, 1),
    (WireClass.L, 12, 1),
    (WireClass.PW, 72, 2),
    (WireClass.B, 72, 2),
    (WireClass.L, 0, 1),
]


def record_all(stats, grants):
    for wire_class, bits, weight in grants:
        stats.record_segment(wire_class, bits, weight)
    return stats


def per_grant(grants):
    """The reference: stats folded after every single grant."""
    stats = InterconnectStats()
    for grant in grants:
        record_all(stats, [grant]).flush()
    return stats


def assert_same_counters(stats, reference):
    """Field-for-field agreement, including dict insertion order."""
    assert list(stats.by_plane) == list(reference.by_plane)
    assert stats.by_plane == reference.by_plane
    assert stats.dynamic_energy() == reference.dynamic_energy()
    assert stats.total_transfers() == reference.total_transfers()
    for wire_class in WireClass:
        assert (stats.transfers_on(wire_class)
                == reference.transfers_on(wire_class))


class TestBatchedStatsFold:
    def test_flush_matches_scalar_recording(self):
        batched = record_all(InterconnectStats(), GRANTS)
        batched.flush()
        assert_same_counters(batched, per_grant(GRANTS))

    def test_flush_is_idempotent_and_incremental(self):
        batched = record_all(InterconnectStats(), GRANTS[:4])
        batched.flush()
        first = batched.dynamic_energy()
        assert batched.flush().dynamic_energy() == first
        record_all(batched, GRANTS[4:])
        batched.flush()
        assert_same_counters(batched, per_grant(GRANTS))

    def test_reading_accessors_fold_pending_tallies(self):
        # dynamic_energy/transfers_on/total_transfers auto-flush, so a
        # reader can never observe a half-recorded state.
        for accessor in ("dynamic_energy", "total_transfers"):
            batched = record_all(InterconnectStats(), GRANTS)
            assert getattr(batched, accessor)() == \
                getattr(per_grant(GRANTS), accessor)()
        batched = record_all(InterconnectStats(), GRANTS)
        assert batched.transfers_on(WireClass.B) == 4

    def test_reinit_clears_tally(self):
        # reset_measurement() resets the live stats object; pending
        # tallies must not leak into the measured window.
        batched = record_all(InterconnectStats(), GRANTS)
        batched.reset()
        batched.flush()
        assert batched.total_transfers() == 0
        assert batched.by_plane == {}
        assert batched._tally == {}

    def test_negative_bits_still_rejected_when_recorded_directly(self):
        with pytest.raises(ValueError):
            InterconnectStats().record_segment(WireClass.B, -1, 1)


class TestEngineReportsAgree:
    """Telemetry does not change what the network reports.

    Every run takes the network's one queue path; a traced run adds
    per-segment events and histograms to it, so a traced and an
    untraced run of the same window must report the same numbers.
    """

    @pytest.fixture(scope="class")
    def processors(self):
        cpus = {}
        for name, telemetry in (("untraced", None),
                                ("traced", Telemetry(sink=RingBufferSink()))):
            cpu = build_processor(model("X").config, "gzip",
                                  telemetry=telemetry)
            cpu.run(600, warmup=150)
            cpus[name] = cpu
        assert cpus["traced"].network.telemetry.metrics.snapshot()[
            "network.segments_routed"] > 0
        return cpus

    def test_utilization_reports_identical(self, processors):
        assert (processors["traced"].network.utilization_report()
                == processors["untraced"].network.utilization_report())

    def test_fault_counters_identical(self, processors):
        def counters(cpu):
            stats = cpu.network.stats
            return (stats.corrupted_segments, stats.retransmissions,
                    stats.retry_escalations, stats.degraded_reroutes,
                    cpu.network.selector.degraded_selections)

        assert (counters(processors["traced"])
                == counters(processors["untraced"]))

    def test_stats_counters_identical(self, processors):
        traced = processors["traced"].network.stats
        untraced = processors["untraced"].network.stats
        assert_same_counters(untraced, traced)
