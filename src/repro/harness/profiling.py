"""Wall-clock profiling of the harness itself (Chrome-trace export).

The simulator-scope telemetry package is cycle-stamped and wall-clock
free (``tests/golden/test_cross_process.py`` checks that its traces
reproduce in fresh interpreters); *this* module is the harness-side
complement: it times cache probes, simulation runs, worker-pool
launches and whole sweeps with ``time.perf_counter`` and renders them
in the same Chrome Trace Event Format
(:mod:`repro.telemetry.chrometrace` schema), so a sweep's timeline
loads in Perfetto / ``chrome://tracing`` next to simulator traces.

Timestamps are microseconds since the profiler was created; durations
are microseconds.  The :data:`NULL_PROFILER` singleton keeps every
instrumentation site zero-cost when profiling is off -- one ``enabled``
check, no event construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..telemetry.chrometrace import TRACE_PID, TRACE_TID

#: Chrome-trace category for harness spans.
HARNESS_CATEGORY = "harness"


class HarnessProfiler:
    """Collects wall-clock spans/instants for one harness invocation."""

    __slots__ = ("enabled", "_origin", "_events")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._origin = time.perf_counter()
        self._events: List[Dict[str, object]] = []

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        """Microseconds since this profiler was created."""
        return (time.perf_counter() - self._origin) * 1e6

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = HARNESS_CATEGORY,
             **args: object) -> Iterator[None]:
        """Time a ``with`` block as one complete ("X") event."""
        if not self.enabled:
            yield
            return
        start = self.now()
        try:
            yield
        finally:
            self.complete(name, start, self.now() - start,
                          category=category, **args)

    def complete(self, name: str, start_us: float, duration_us: float,
                 category: str = HARNESS_CATEGORY,
                 **args: object) -> None:
        """Record a complete ("X") event from explicit timestamps."""
        if not self.enabled:
            return
        event: Dict[str, object] = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": start_us,
            "dur": max(0.0, duration_us),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def instant(self, name: str, category: str = HARNESS_CATEGORY,
                **args: object) -> None:
        """Record an instant ("i") event at the current time."""
        if not self.enabled:
            return
        event: Dict[str, object] = {
            "name": name,
            "cat": category,
            "ph": "i",
            "ts": self.now(),
            "s": "t",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    # -- export ----------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, object]]:
        return list(self._events)

    def chrome_trace(self) -> Dict[str, object]:
        """The Chrome-trace envelope (ts already in microseconds)."""
        return {
            "traceEvents": sorted(
                self._events,
                key=lambda e: (e["ts"], str(e["name"])),
            ),
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "wall-clock microseconds",
                          "source": "repro harness profiler"},
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace JSON; returns the path written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.chrome_trace(), indent=1))
        return target

    def summary(self) -> str:
        """One-line accounting of recorded spans, by name."""
        totals: Dict[str, List[float]] = {}
        for event in self._events:
            if event.get("ph") != "X":
                continue
            entry = totals.setdefault(str(event["name"]), [0, 0.0])
            entry[0] += 1
            entry[1] += float(event.get("dur", 0.0))  # type: ignore
        if not totals:
            return "profiler: no spans recorded"
        parts = [
            f"{name} x{int(count)} ({total / 1e6:.2f}s)"
            for name, (count, total)
            in sorted(totals.items(), key=lambda kv: -kv[1][1])
        ]
        return "profiler: " + ", ".join(parts)


#: Shared disabled profiler: instrumentation sites fall back to this so
#: the hot path is a single attribute check.
NULL_PROFILER = HarnessProfiler(enabled=False)


def make_profiler(enabled: bool) -> Optional[HarnessProfiler]:
    """A live profiler when ``enabled``, else None (callers keep NULL)."""
    return HarnessProfiler(enabled=True) if enabled else None
