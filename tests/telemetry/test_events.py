"""Trace-event model: kinds, categories, attribute handling."""

import pickle

import pytest

from repro.telemetry import (
    ALL_CATEGORIES,
    EVENT_CATEGORY,
    EventKind,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    event_names,
    make_event,
)


class TestEventKinds:
    def test_every_kind_has_a_category(self):
        assert set(EVENT_CATEGORY) == set(EventKind)

    def test_acceptance_categories_exist(self):
        """The categories the CI trace check requires are all mapped."""
        for category in ("wire-selection", "overflow", "fault", "cache"):
            assert category in ALL_CATEGORIES

    def test_overflow_covers_both_divert_and_spill(self):
        assert EVENT_CATEGORY[EventKind.LB_DIVERT] == "overflow"
        assert EVENT_CATEGORY[EventKind.STEER_OVERFLOW] == "overflow"

    def test_values_are_stable_snake_case(self):
        for kind in EventKind:
            assert kind.value == kind.value.lower()
            assert " " not in kind.value


class TestTraceEvent:
    def test_attrs_sorted_and_readable(self):
        event = make_event(7, EventKind.WIRE_SELECTED,
                           {"reason": "bulk", "kind": "operand"})
        assert event.cycle == 7
        assert event.attrs == (("kind", "operand"), ("reason", "bulk"))
        assert event.attr("reason") == "bulk"
        assert event.attr("missing", "fallback") == "fallback"

    def test_no_attrs(self):
        event = make_event(0, EventKind.RUN_END)
        assert event.attrs == ()

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            make_event(-1, EventKind.RUN_START)

    @pytest.mark.parametrize("build", [
        lambda: TraceEvent(-1, EventKind.RUN_START),
        lambda: make_event(-1, EventKind.RUN_START, {"seed": 1}),
        lambda: Telemetry(sink=RingBufferSink()).emit(
            -1, EventKind.RUN_START, ("seed",), (1,)),
    ], ids=["TraceEvent", "make_event", "Telemetry.emit"])
    def test_negative_cycle_rejected_on_every_path(self, build):
        with pytest.raises(ValueError, match="non-negative"):
            build()

    def test_names_and_values_must_pair_up(self):
        with pytest.raises(ValueError, match="2 attribute names but 1"):
            TraceEvent(1, EventKind.PLANE_KILL, ("channel", "plane"), ("L",))
        with pytest.raises(ValueError, match="1 attribute names but 0"):
            Telemetry(sink=RingBufferSink()).emit(
                1, EventKind.PLANE_KILL, ("plane",))

    def test_make_event_equals_the_record(self):
        adapted = make_event(7, EventKind.LB_DIVERT, {"to": "PW", "from": "B"})
        record = TraceEvent(7, EventKind.LB_DIVERT, ("from", "to"),
                            ("B", "PW"))
        assert adapted == record
        assert hash(adapted) == hash(record)
        assert type(adapted) is TraceEvent
        assert adapted.names == ("from", "to")
        assert adapted.values == ("B", "PW")
        assert pickle.loads(pickle.dumps(record)) == record

    def test_category_property(self):
        assert make_event(1, EventKind.PLANE_KILL).category == "fault"
        assert make_event(1, EventKind.CACHE_ACCESS).category == "cache"

    def test_to_json_round_trippable(self):
        event = make_event(12, EventKind.LB_DIVERT,
                           {"from": "B", "to": "PW"})
        data = event.to_json()
        assert data == {
            "cycle": 12,
            "kind": "lb_divert",
            "category": "overflow",
            "attrs": {"from": "B", "to": "PW"},
        }

    def test_frozen(self):
        event = make_event(1, EventKind.RUN_START)
        with pytest.raises(AttributeError):
            event.cycle = 2
        with pytest.raises(AttributeError):
            event.extra = 2


class TestEventNames:
    def test_sorted_unique_names_pass_through(self):
        assert event_names("bits", "channel", "dst") == ("bits", "channel",
                                                         "dst")
        assert event_names() == ()

    @pytest.mark.parametrize("names", [
        ("plane", "channel"),
        ("channel", "channel"),
        ("bits", "dst", "channel"),
        ("bits", "bits", "channel"),
    ])
    def test_unsorted_or_duplicate_names_rejected(self, names):
        with pytest.raises(ValueError, match="sorted and unique"):
            event_names(*names)
