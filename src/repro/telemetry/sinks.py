"""The event store: :class:`RingBufferSink` keeps emitted events.

It is the only sink.  A bounded buffer keeps the most recent
``capacity`` events and counts what it dropped; ``capacity=None``
keeps the whole run (``repro trace`` exports every event, as Chrome
JSON and as JSON Lines, after the run ends).

The sink never mutates events and never feeds anything back into the
simulator, so attaching one cannot change simulated results (the
determinism test in ``tests/telemetry/test_determinism.py`` pins this).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .events import TraceEvent


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    ``capacity=None`` means unbounded.  ``dropped`` counts events that
    aged out of a bounded buffer, so a truncated trace is always
    detectable instead of silently looking complete.
    """

    DEFAULT_CAPACITY = 65_536

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ring-buffer capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._buffer: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)
        self._emitted += 1

    @property
    def dropped(self) -> int:
        return self._emitted - len(self._buffer)

    @property
    def emitted(self) -> int:
        return self._emitted

    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._buffer)
