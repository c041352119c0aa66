"""The Telemetry handle: null default, zero-cost disabled contract."""

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    EventKind,
    RingBufferSink,
    Telemetry,
)


class TestNullTelemetry:
    def test_shared_singleton(self):
        assert NULL_TELEMETRY.enabled is False

    def test_disabled_handle_records_nothing(self):
        NULL_TELEMETRY.emit(5, EventKind.PLANE_KILL, ("plane",), ("L",))
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.observe("h", 1, bounds=(10,))
        NULL_TELEMETRY.set_gauge("g", 2.0)
        assert NULL_TELEMETRY.events() == ()
        assert NULL_TELEMETRY.metrics.snapshot() == {}

    def test_components_default_to_null_handle(self):
        from repro.core.config import (
            InterconnectConfig,
            ProcessorConfig,
            wire_counts,
        )
        from repro.core.processor import ClusteredProcessor
        from repro.workloads.generator import TraceGenerator
        from repro.workloads.spec2k import profile

        generator = TraceGenerator(profile("gzip"), seed=1)
        cpu = ClusteredProcessor(
            ProcessorConfig(num_clusters=4),
            InterconnectConfig(wires=wire_counts(B=144)),
            generator.stream_forever(),
        )
        assert cpu.telemetry is NULL_TELEMETRY
        assert cpu.network.telemetry is NULL_TELEMETRY
        assert cpu.network.selector.telemetry is NULL_TELEMETRY
        assert cpu.steering.telemetry is NULL_TELEMETRY


class TestEnabledTelemetry:
    def test_emit_and_count(self):
        tel = Telemetry(sink=RingBufferSink())
        tel.emit(3, EventKind.WIRE_SELECTED, ("reason",), ("bulk",))
        tel.count("selection.bulk")
        tel.count("selection.bulk", 2)
        (event,) = tel.events()
        assert event.cycle == 3
        assert event.attr("reason") == "bulk"
        assert tel.metrics.snapshot()["selection.bulk"] == 3

    def test_observe_and_gauge(self):
        tel = Telemetry()
        tel.observe("bits", 72, bounds=(18, 144))
        tel.set_gauge("depth", 4.0)
        snapshot = tel.metrics.snapshot()
        assert snapshot["bits"]["total"] == 1
        assert snapshot["depth"] == 4.0

    def test_disabled_flag_suppresses_everything(self):
        sink = RingBufferSink()
        tel = Telemetry(sink=sink, enabled=False)
        tel.emit(1, EventKind.RUN_START)
        tel.count("x")
        assert sink.events() == ()
        assert tel.metrics.snapshot() == {}
