"""Round-trip coverage of the tallied grant accounting.

:class:`InterconnectStats` tallies grants per (plane, bits, weight,
kind) shape and folds them into its counters on first read.  These
tests pin the fold: tallied stats must agree with stats folded after
every single grant on *every* observable -- counters, insertion order
(which fixes the float summation order of ``dynamic_energy``) and energy
totals -- and :meth:`InterconnectStats.merge` must round-trip across
splits of the grant stream, which is exactly what warmup resets and
sweep roll-ups rely on.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import build_processor
from repro.interconnect.message import TransferKind
from repro.interconnect.stats import InterconnectStats
from repro.telemetry import (MetricsRegistry, RingBufferSink, Telemetry,
                             merge_counters)
from repro.wires import WireClass

#: A grant stream touching several planes/kinds in interleaved order,
#: with repeated shapes (the tally's whole point) and a zero-bit edge.
GRANTS = [
    (WireClass.B, 72, 1, TransferKind.OPERAND),
    (WireClass.L, 12, 1, TransferKind.LOAD_ADDRESS),
    (WireClass.B, 72, 1, TransferKind.OPERAND),
    (WireClass.PW, 72, 2, TransferKind.STORE_DATA),
    (WireClass.B, 24, 1, TransferKind.OPERAND),
    (WireClass.L, 12, 1, TransferKind.MISPREDICT),
    (WireClass.PW, 72, 2, TransferKind.STORE_DATA),
    (WireClass.B, 72, 2, TransferKind.LOAD_DATA),
    (WireClass.L, 0, 1, TransferKind.LOAD_ADDRESS),
]


def record_all(stats, grants):
    for wire_class, bits, weight, kind in grants:
        stats.record_segment(wire_class, bits, weight, kind)
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
    assert list(stats.by_kind) == list(reference.by_kind)
    assert stats.by_kind == reference.by_kind
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
            InterconnectStats().record_segment(
                WireClass.B, -1, 1, TransferKind.OPERAND)


class TestMergeRoundTrip:
    @pytest.mark.parametrize("split", [0, 1, 4, len(GRANTS)])
    def test_split_streams_merge_to_the_whole(self, split):
        whole = record_all(InterconnectStats(), GRANTS)
        head = record_all(InterconnectStats(), GRANTS[:split]).flush()
        tail = record_all(InterconnectStats(), GRANTS[split:]).flush()
        combined = InterconnectStats()
        combined.merge(head).merge(tail)
        assert_same_counters(combined, whole)

    def test_merge_preserves_first_touch_order(self):
        # The fold must append unseen planes in the *other* stats'
        # insertion order -- dynamic_energy sums floats in that order,
        # and pinned energy totals depend on it.
        first = record_all(InterconnectStats(), GRANTS[:2])
        second = record_all(InterconnectStats(), GRANTS[2:])
        first.merge(second)
        assert list(first.by_plane) == [WireClass.B, WireClass.L,
                                        WireClass.PW]

    def test_merge_sums_scalar_counters(self):
        left = InterconnectStats(buffered_cycles=3, split_transfers=1,
                                 retransmissions=2)
        right = InterconnectStats(buffered_cycles=4, split_transfers=2,
                                  corrupted_segments=5)
        left.merge(right)
        assert left.buffered_cycles == 7
        assert left.split_transfers == 3
        assert left.retransmissions == 2
        assert left.corrupted_segments == 5


class TestEngineReportsAgree:
    """The network's batched path reports what its keyed path does.

    Telemetry sends a run down the keyed path without perturbing it, so
    a traced and an untraced run of the same window must agree.
    """

    @pytest.fixture(scope="class")
    def processors(self):
        cpus = {}
        for path, telemetry in (("batched", None),
                                ("keyed", Telemetry(sink=RingBufferSink()))):
            cpu = build_processor(model("X").config, "gzip",
                                  telemetry=telemetry)
            assert cpu.network._batched == (path == "batched")
            cpu.run(600, warmup=150)
            cpus[path] = cpu
        return cpus

    def test_utilization_reports_identical(self, processors):
        assert (processors["keyed"].network.utilization_report()
                == processors["batched"].network.utilization_report())

    def test_degradation_reports_identical(self, processors):
        assert (processors["keyed"].network.degradation_report()
                == processors["batched"].network.degradation_report())

    def test_stats_counters_identical(self, processors):
        keyed = processors["keyed"].network.stats
        batched = processors["batched"].network.stats
        assert_same_counters(batched, keyed)
        assert batched.buffered_cycles == keyed.buffered_cycles
        assert batched.split_transfers == keyed.split_transfers


class TestMetricsRegistryMerge:
    def test_counter_snapshots_round_trip(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        whole = MetricsRegistry()
        for name, splits in [("net.grants", (3, 4)),
                             ("steer.overflow", (0, 2)),
                             ("cache.l1", (7, 0))]:
            left.counter(name).inc(splits[0])
            right.counter(name).inc(splits[1])
            whole.counter(name).inc(sum(splits))
        merged = merge_counters([left.snapshot(), right.snapshot()])
        expected = {name: value
                    for name, value in whole.snapshot().items()
                    if isinstance(value, int)}
        assert merged == expected

    def test_merge_skips_non_integer_instruments(self):
        registry = MetricsRegistry()
        registry.counter("net.grants").inc(2)
        registry.gauge("net.depth").set(3.5)
        registry.histogram("net.lat", (1.0, 2.0)).observe(1.5)
        merged = merge_counters([registry.snapshot(),
                                 registry.snapshot()])
        assert merged == {"net.grants": 4}
