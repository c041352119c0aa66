"""The :class:`Telemetry` handle every instrumented component holds.

Design rule (the "zero-cost-when-disabled" contract): instrumented hot
paths hold a handle -- never ``None`` -- and guard every emission with
``if tel.enabled:`` *before* building attribute values, so a disabled
handle costs one attribute load and one branch per site.  The module
singleton :data:`NULL_TELEMETRY` is the default handle: permanently
disabled, so its sink and registry are never written.

The handle deliberately has no notion of time: callers stamp events
with their own cycle counter, keeping the subsystem wall-clock-free in
simulator scope (``tests/golden/test_cross_process.py`` checks that
traces reproduce in fresh interpreters; harness wall-clock profiling
lives in :mod:`repro.harness.profiling`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .events import EventKind, TraceEvent
from .metrics import MetricsRegistry
from .sinks import RingBufferSink


class Telemetry:
    """Bundles an event sink and a metrics registry behind one flag."""

    __slots__ = ("enabled", "sink", "metrics")

    def __init__(self, sink: Optional[RingBufferSink] = None,
                 enabled: bool = True) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        self.metrics = MetricsRegistry()
        self.enabled = enabled

    # -- emission --------------------------------------------------------

    def emit(self, cycle: int, kind: EventKind,
             names: Tuple[str, ...] = (),
             values: Tuple[object, ...] = ()) -> None:
        """Emit one cycle-stamped event (no-op when disabled).

        ``names`` is the site's :func:`~repro.telemetry.events.event_names`
        constant and ``values`` the matching values.
        """
        if self.enabled:
            self.sink.emit(TraceEvent(cycle, kind, names, values))

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        if self.enabled:
            self.metrics.histogram(name, bounds).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    # -- introspection ---------------------------------------------------

    def events(self) -> Tuple[TraceEvent, ...]:
        """The events the sink has buffered."""
        return self.sink.events()


#: Shared always-off handle; instrumented code defaults to this so the
#: hot path never needs a None check.
NULL_TELEMETRY: Telemetry = Telemetry(enabled=False)
