"""Bounded FIFO admission queue with explicit backpressure.

The service's first robustness rule is "never unbounded memory": a
burst of submissions past ``capacity`` is *rejected at admission* with
a ``Retry-After`` hint, not buffered.  Jobs dequeue in admission order.
The queue is designed for the single-loop asyncio server: producers
call :meth:`put` from request handlers, the one dispatcher consumer
awaits :meth:`get`.

The ``Retry-After`` hint scales with queue depth and an EWMA of
recent job service times (seeded with :data:`DRAIN_HINT` seconds), so
a client that honours it comes back roughly when its slot would clear
rather than hammering a saturated server.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Deque, Optional

from ..telemetry import NULL_TELEMETRY, Telemetry

#: The assumed job duration, in seconds, before any job has finished.
DRAIN_HINT = 2.0


class QueueFullError(Exception):
    """Admission rejected: the queue is at capacity.

    ``retry_after`` is the whole number of seconds the client should
    wait before resubmitting (the HTTP ``Retry-After`` header value).
    """

    def __init__(self, depth: int, capacity: int,
                 retry_after: int) -> None:
        super().__init__(
            f"admission queue full ({depth}/{capacity} jobs); "
            f"retry in {retry_after}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


class AdmissionQueue:
    """A bounded FIFO queue for job ids (or any hashable items)."""

    def __init__(self, capacity: int,
                 telemetry: Optional[Telemetry] = None) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._items: Deque[object] = deque()
        self._service_time = DRAIN_HINT  # EWMA of job durations
        self._not_empty = asyncio.Event()
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.rejected = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def retry_after(self) -> int:
        """Suggested client wait, in whole seconds, at current depth."""
        estimate = (self.depth + 1) * self._service_time
        return max(1, min(120, math.ceil(estimate)))

    def observe_service_time(self, seconds: float) -> None:
        """Fold one completed job's duration into the drain estimate."""
        if seconds > 0:
            self._service_time += 0.3 * (seconds - self._service_time)

    def put(self, item: object, force: bool = False) -> None:
        """Admit ``item``, or raise :class:`QueueFullError`.

        Rejection happens *before* anything is stored, so sustained
        over-admission costs O(1) memory per attempt.  ``force``
        bypasses the capacity check -- reserved for jobs a restarted
        server resumes, which were admitted before the restart; never
        for new submissions.
        """
        if not force and len(self._items) >= self.capacity:
            self.rejected += 1
            self.telemetry.count("service.jobs_rejected")
            raise QueueFullError(self.depth, self.capacity,
                                 self.retry_after())
        self._items.append(item)
        self._not_empty.set()
        self._gauge()

    def remove(self, item: object) -> bool:
        """Withdraw a queued item (job cancellation); True if found."""
        try:
            self._items.remove(item)
        except ValueError:
            return False
        if not self._items:
            self._not_empty.clear()
        self._gauge()
        return True

    async def get(self) -> object:
        """Await the oldest admitted item."""
        while not self._items:
            self._not_empty.clear()
            await self._not_empty.wait()
        item = self._items.popleft()
        if not self._items:
            self._not_empty.clear()
        self._gauge()
        return item

    def _gauge(self) -> None:
        self.telemetry.set_gauge("service.queue_depth", self.depth)
