"""The ring-buffer sink: bounds and drop accounting."""

import pytest

from repro.telemetry import EventKind, RingBufferSink, make_event


def _events(n, kind=EventKind.WIRE_SELECTED):
    return [make_event(i, kind, {"i": i}) for i in range(n)]


class TestRingBufferSink:
    def test_keeps_most_recent_when_bounded(self):
        sink = RingBufferSink(capacity=3)
        for event in _events(5):
            sink.emit(event)
        kept = sink.events()
        assert [e.cycle for e in kept] == [2, 3, 4]
        assert sink.dropped == 2
        assert sink.emitted == 5

    def test_unbounded(self):
        sink = RingBufferSink(capacity=None)
        for event in _events(100):
            sink.emit(event)
        assert len(sink.events()) == 100
        assert sink.dropped == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)
