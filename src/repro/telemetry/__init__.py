"""Telemetry: cycle-stamped event tracing, metrics, trace export.

Three pillars (DESIGN.md section 10):

* **Structured event tracer** -- :class:`TraceEvent`/:class:`EventKind`
  cycle-stamped typed events, kept by the one sink,
  :class:`RingBufferSink` (bounded, or unbounded for a whole run).
* **Metrics registry** -- deterministic counters, gauges and
  fixed-bucket histograms (:class:`MetricsRegistry`); no wall clock
  anywhere in this package (``tests/golden/test_cross_process.py``
  checks that traces reproduce in fresh interpreters).
* **Trace export** -- Chrome-trace / Perfetto JSON
  (:func:`write_chrome_trace`, :func:`validate_chrome_trace`) and
  sweep-level aggregation (:func:`summarize`, :func:`render_summary`).

Everything is wired through the :class:`Telemetry` handle;
:data:`NULL_TELEMETRY` is the zero-cost disabled default every
instrumented component falls back to.  Wall-clock *harness* profiling
(run timelines) lives in :mod:`repro.harness.profiling`, which reuses
this package's Chrome-trace schema.
"""

from .aggregate import TraceSummary, render_summary, summarize
from .chrometrace import (
    assert_valid_chrome_trace,
    chrome_events,
    chrome_trace,
    trace_categories,
    validate_chrome_trace,
    write_chrome_trace,
)
from .events import (
    ALL_CATEGORIES,
    EVENT_CATEGORY,
    EventKind,
    TraceEvent,
    event_names,
    make_event,
)
from .handle import NULL_TELEMETRY, Telemetry
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import RingBufferSink

__all__ = [
    "ALL_CATEGORIES",
    "EVENT_CATEGORY",
    "EventKind",
    "TraceEvent",
    "event_names",
    "make_event",
    "NULL_TELEMETRY",
    "Telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RingBufferSink",
    "TraceSummary",
    "render_summary",
    "summarize",
    "assert_valid_chrome_trace",
    "chrome_events",
    "chrome_trace",
    "trace_categories",
    "validate_chrome_trace",
    "write_chrome_trace",
]
