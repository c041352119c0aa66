"""Sweep-level aggregation: decision reasons, link traffic, rendering."""

from repro.telemetry import (
    EventKind,
    TraceSummary,
    make_event,
    render_summary,
    summarize,
)


def _stream():
    return [
        make_event(1, EventKind.WIRE_SELECTED, {"reason": "bulk"}),
        make_event(2, EventKind.WIRE_SELECTED, {"reason": "bulk"}),
        make_event(3, EventKind.WIRE_SELECTED, {"reason": "pw_store"}),
        make_event(3, EventKind.TRANSFER_ROUTED,
                   {"channel": "c0:out", "plane": "B", "bits": 72}),
        make_event(4, EventKind.TRANSFER_ROUTED,
                   {"channel": "c0:out", "plane": "B", "bits": 72}),
        make_event(4, EventKind.TRANSFER_ROUTED,
                   {"channel": "c1:out", "plane": "PW", "bits": 72}),
        make_event(5, EventKind.LB_DIVERT, {"from": "B", "to": "PW"}),
        make_event(6, EventKind.STEER_OVERFLOW,
                   {"preferred": 0, "fallback": 1}),
        make_event(7, EventKind.PLANE_KILL,
                   {"channel": "c0:out", "plane": "L"}),
        make_event(8, EventKind.CACHE_ACCESS, {"level": "l1"}),
        make_event(9, EventKind.CACHE_ACCESS, {"level": "l1"}),
        make_event(9, EventKind.CACHE_ACCESS, {"level": "l2"}),
        make_event(10, EventKind.PLANE_GATED, {"plane": "PW"}),
        make_event(11, EventKind.PLANE_WOKEN, {"plane": "PW"}),
        make_event(11, EventKind.PLANE_GATED, {"plane": "B"}),
        make_event(12, EventKind.STEERING_PENALTY, {"cluster": 1}),
    ]


class TestSummarize:
    def test_full_accounting(self):
        summary = summarize(_stream())
        assert isinstance(summary, TraceSummary)
        assert summary.total_events == 16
        assert summary.selection_reasons == (("bulk", 2), ("pw_store", 1))
        assert summary.link_traffic == (
            ("c0:out", "B", 2, 144),
            ("c1:out", "PW", 1, 72),
        )
        assert summary.lb_diverts == 1
        assert summary.steer_overflows == 1
        assert summary.fault_counts == (("plane_kill", 1),)
        assert summary.power_counts == (("plane_gated", 2),
                                        ("plane_woken", 1))
        assert summary.steering_counts == (("steering_penalty", 1),)
        assert summary.cache_levels == (("l1", 2), ("l2", 1))

    def test_empty_stream(self):
        summary = summarize([])
        assert summary.total_events == 0
        assert summary.selection_reasons == ()
        assert summary.link_traffic == ()


class TestRenderSummary:
    def test_renders_all_tables(self):
        text = render_summary(summarize(_stream()), cycles=100)
        assert "16 events over the whole run, 100 cycles measured" in text
        assert "wire-selection decisions by reason:" in text
        assert "bulk" in text and "66.7%" in text
        assert "traffic by link and plane:" in text
        assert "c0:out" in text
        assert "1 load-balance divert(s), 1 steering spill(s)" in text
        assert "cache accesses by level: l1=2, l2=1" in text
        assert "fault events: plane_kill=1" in text
        assert "power events: plane_gated=2, plane_woken=1" in text
        assert "steering events: steering_penalty=1" in text

    def test_render_empty_is_stable(self):
        text = render_summary(summarize([]))
        assert "0 events" in text
