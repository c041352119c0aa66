"""Acceptance tests: telemetry is observe-only and traces are well-formed.

Two pinned properties:

* enabling telemetry changes NO reproduced metric -- a traced run's
  :class:`BenchmarkRun` equals the untraced run's, field for field;
* a traced simulation's exported Chrome trace passes schema validation,
  carries the required categories (wire-selection, overflow, fault,
  cache) and has monotonically non-decreasing cycle timestamps.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import simulate_benchmark
from repro.faults import FaultSpec
from repro.telemetry import (
    RingBufferSink,
    Telemetry,
    chrome_trace,
    trace_categories,
    validate_chrome_trace,
)

WINDOW = dict(instructions=2000, warmup=500)
KILL_L = FaultSpec.parse("kill=L@*@200")


def _traced(model_name="X", fault_spec=KILL_L, **kwargs):
    telemetry = Telemetry(sink=RingBufferSink(capacity=None))
    run = simulate_benchmark(
        model(model_name).config, "gzip", fault_spec=fault_spec,
        telemetry=telemetry, **WINDOW, **kwargs,
    )
    return run, telemetry


class TestObserveOnly:
    def test_traced_equals_untraced(self):
        traced, _ = _traced()
        untraced = simulate_benchmark(
            model("X").config, "gzip", fault_spec=KILL_L, **WINDOW,
        )
        assert traced == untraced

    def test_traced_equals_untraced_healthy(self):
        traced, _ = _traced(fault_spec=None)
        untraced = simulate_benchmark(model("X").config, "gzip", **WINDOW)
        assert traced == untraced

    def test_tracing_is_repeatable(self):
        _, tel_a = _traced()
        _, tel_b = _traced()
        assert tel_a.events() == tel_b.events()
        assert tel_a.metrics.snapshot() == tel_b.metrics.snapshot()


class TestTraceContents:
    @pytest.fixture(scope="class")
    def traced(self):
        return _traced()

    def test_required_categories_present(self, traced):
        _, telemetry = traced
        trace = chrome_trace(telemetry.events())
        categories = trace_categories(trace)
        for required in ("wire-selection", "overflow", "fault", "cache",
                         "run"):
            assert required in categories

    def test_trace_validates(self, traced):
        _, telemetry = traced
        assert validate_chrome_trace(chrome_trace(telemetry.events())) == []

    def test_cycle_timestamps_monotonic(self, traced):
        _, telemetry = traced
        events = telemetry.events()
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        assert all(c >= 0 for c in cycles)
        stamps = [e["ts"] for e in chrome_trace(events)["traceEvents"]
                  if e["ph"] == "i"]
        assert stamps == sorted(stamps)

    def test_counters_match_event_stream(self, traced):
        """Registry counters agree with the buffered event stream."""
        _, telemetry = traced
        from repro.telemetry import EventKind

        snapshot = telemetry.metrics.snapshot()
        events = telemetry.events()
        kills = sum(1 for e in events if e.kind is EventKind.PLANE_KILL)
        assert snapshot["faults.plane_kills"] == kills
        selected = sum(1 for e in events
                       if e.kind is EventKind.WIRE_SELECTED)
        by_reason = sum(count for name, count in snapshot.items()
                        if name.startswith("selection.")
                        and name != "selection.lb_divert"
                        and isinstance(count, int))
        assert by_reason == selected
        caches = sum(1 for e in events
                     if e.kind is EventKind.CACHE_ACCESS)
        assert sum(count for name, count in snapshot.items()
                   if name.startswith("cache.")
                   and isinstance(count, int)) == caches

    def test_run_boundaries_emitted(self, traced):
        _, telemetry = traced
        kinds = [e.kind.value for e in telemetry.events()]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
