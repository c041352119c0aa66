"""The event wheel driving the processor's scheduled work.

A minimal calendar queue specialized for the simulator's needs:

* :meth:`schedule` files a callback under an absolute cycle.
* :meth:`pop_due` drains exactly one cycle's events in FIFO order
  (schedule order), which the golden corpus's pinned results rest on.
* :meth:`next_cycle` reports the earliest cycle holding an event,
  letting the core skip idle cycles entirely instead of stepping
  through them one at a time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A scheduled entry: the callback and its single argument; entries
#: fire as ``fn(arg)``.
Entry = Tuple[Callable[[Any], None], Any]


class EventWheel:
    """Cycle-indexed pending-event storage with idle-cycle lookahead."""

    __slots__ = ("_slots", "_heap")

    def __init__(self) -> None:
        self._slots: Dict[int, List[Entry]] = {}
        #: Cycles that had events when scheduled; a drained cycle's
        #: entry is retired by :meth:`next_cycle`.
        self._heap: List[int] = []

    def schedule(self, cycle: int, fn: Callable[[Any], None],
                 arg: Any = None) -> None:
        """File ``fn(arg)`` to fire at ``cycle``."""
        if cycle < 0:
            raise ValueError("cannot schedule an event before cycle 0")
        slots = self._slots.get(cycle)
        if slots is None:
            slots = self._slots[cycle] = []
            heapq.heappush(self._heap, cycle)
        slots.append((fn, arg))

    def pop_due(self, cycle: int) -> Sequence[Entry]:
        """Remove and return ``cycle``'s entries.

        The caller fires them in sequence order -- FIFO within the
        cycle, exactly as scheduled.
        """
        return self._slots.pop(cycle, ())

    def next_cycle(self) -> Optional[int]:
        """Earliest cycle holding an event, or None when empty."""
        heap = self._heap
        slots = self._slots
        while heap:
            cycle = heap[0]
            if cycle in slots:
                return cycle
            heapq.heappop(heap)
        return None
