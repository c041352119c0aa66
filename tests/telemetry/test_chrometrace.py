"""Chrome-trace export: structure, validation, round trips."""

import json

import pytest

from repro.telemetry import (
    EventKind,
    assert_valid_chrome_trace,
    chrome_events,
    chrome_trace,
    make_event,
    trace_categories,
    validate_chrome_trace,
    write_chrome_trace,
)


def _run_events():
    return [
        make_event(10, EventKind.RUN_START, {"benchmark": "gzip"}),
        make_event(11, EventKind.WIRE_SELECTED,
                   {"reason": "bulk", "plane": "B"}),
        make_event(12, EventKind.LB_DIVERT, {"from": "B", "to": "PW"}),
        make_event(15, EventKind.CACHE_ACCESS, {"level": "l1"}),
        make_event(20, EventKind.RUN_END, {"committed": 5, "cycles": 10}),
    ]


class TestChromeEvents:
    def test_instants_plus_synthetic_span(self):
        events = chrome_events(_run_events())
        phases = [e["ph"] for e in events]
        assert phases.count("i") == 5
        assert phases.count("X") == 1
        span = next(e for e in events if e["ph"] == "X")
        assert span["name"] == "simulation"
        assert span["ts"] == 10
        assert span["dur"] == 10

    def test_sorted_by_timestamp(self):
        events = chrome_events(reversed(_run_events()))
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_no_span_without_run_boundaries(self):
        events = chrome_events(_run_events()[1:-1])
        assert all(e["ph"] == "i" for e in events)

    def test_cycle_is_microsecond_ts(self):
        (event,) = chrome_events(
            [make_event(1234, EventKind.PLANE_KILL, {"plane": "L"})]
        )
        assert event["ts"] == 1234
        assert event["cat"] == "fault"
        assert event["args"] == {"plane": "L"}


class TestEnvelope:
    def test_chrome_trace_records_time_unit(self):
        trace = chrome_trace(_run_events(), metadata={"model": "X"})
        assert trace["otherData"]["time_unit"] == "cycles"
        assert trace["otherData"]["model"] == "X"
        assert validate_chrome_trace(trace) == []

    def test_write_and_load_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", _run_events())
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
        assert trace_categories(trace) == sorted(
            {"run", "wire-selection", "overflow", "cache"}
        )
        stamps = [e["ts"] for e in trace["traceEvents"] if e["ph"] == "i"]
        assert stamps == sorted(stamps)


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"foo": 1}) != []

    def test_flags_every_broken_field(self):
        bad = {"traceEvents": [
            {"name": "", "cat": "x", "ph": "i", "ts": 1,
             "pid": 0, "tid": 0},
            {"name": "ok", "cat": "x", "ph": "zz", "ts": -1,
             "pid": 0, "tid": 0},
            {"name": "span", "cat": "x", "ph": "X", "ts": 1,
             "pid": 0, "tid": 0},  # missing dur
        ]}
        errors = validate_chrome_trace(bad)
        assert len(errors) == 4

    def test_assert_raises_with_detail(self):
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            assert_valid_chrome_trace({"traceEvents": [{}]})

    def test_accepts_bool_rejection_for_numbers(self):
        bad = {"traceEvents": [
            {"name": "x", "cat": "x", "ph": "i", "ts": True,
             "pid": 0, "tid": 0},
        ]}
        assert any("'ts'" in e for e in validate_chrome_trace(bad))
