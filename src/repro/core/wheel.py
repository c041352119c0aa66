"""The event wheel driving the processor's scheduled work.

A minimal calendar queue specialized for the simulator's needs:

* :meth:`schedule` files a callback under an absolute cycle and returns
  a token; :meth:`cancel` revokes a token before it fires.
* :meth:`pop_due` drains exactly one cycle's events in FIFO order
  (schedule order), which the golden corpus's pinned results rest on.
* :meth:`next_cycle` reports the earliest cycle holding a live event,
  letting the core skip idle cycles entirely instead of stepping
  through them one at a time.

Cancelled slots are tombstoned (set to ``None``) rather than removed,
so cancellation never perturbs the relative order of the surviving
events in that cycle.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A scheduled entry: the callback and its single argument.  Entries
#: fire as ``fn(arg)``; tombstones are ``None``.
Entry = Optional[Tuple[Callable[[Any], None], Any]]

#: Opaque cancellation token: (cycle, slot index within that cycle).
Token = Tuple[int, int]


class EventWheel:
    """Cycle-indexed pending-event storage with idle-cycle lookahead."""

    __slots__ = ("_slots", "_live", "_heap", "scheduled", "cancelled",
                 "fired")

    def __init__(self) -> None:
        self._slots: Dict[int, List[Entry]] = {}
        #: Live (non-tombstoned, non-fired) entries per cycle.
        self._live: Dict[int, int] = {}
        self._heap: List[int] = []
        self.scheduled = 0
        self.cancelled = 0
        self.fired = 0

    def __len__(self) -> int:
        """Live events still pending."""
        return sum(self._live.values())

    def schedule(self, cycle: int, fn: Callable[[Any], None],
                 arg: Any = None) -> Token:
        """File ``fn(arg)`` to fire at ``cycle``; returns a cancel token."""
        if cycle < 0:
            raise ValueError("cannot schedule an event before cycle 0")
        slots = self._slots.get(cycle)
        if slots is None:
            slots = self._slots[cycle] = []
            self._live[cycle] = 0
            heapq.heappush(self._heap, cycle)
        slots.append((fn, arg))
        self._live[cycle] += 1
        self.scheduled += 1
        return (cycle, len(slots) - 1)

    def cancel(self, token: Token) -> bool:
        """Revoke a scheduled event; False if already fired/cancelled."""
        cycle, index = token
        slots = self._slots.get(cycle)
        if slots is None or index >= len(slots) or slots[index] is None:
            return False
        slots[index] = None
        self._live[cycle] -= 1
        self.cancelled += 1
        return True

    def pop_due(self, cycle: int) -> List[Entry]:
        """Remove and return ``cycle``'s entries (tombstones included).

        The caller fires the non-``None`` entries in list order -- FIFO
        within the cycle, exactly as scheduled.
        """
        slots = self._slots.pop(cycle, None)
        if slots is None:
            return []
        self.fired += self._live.pop(cycle)
        return slots

    def next_cycle(self) -> Optional[int]:
        """Earliest cycle holding a live event, or None when empty."""
        heap = self._heap
        live = self._live
        while heap:
            cycle = heap[0]
            if live.get(cycle, 0) > 0:
                return cycle
            # Fully drained or fully cancelled: retire the heap entry
            # (and any empty slot list a full cancellation left behind).
            heapq.heappop(heap)
            if live.get(cycle) == 0:
                del self._live[cycle]
                del self._slots[cycle]
        return None

    def fire_due(self, cycle: int) -> int:
        """Pop and invoke ``cycle``'s events; returns the count fired."""
        count = 0
        for entry in self.pop_due(cycle):
            if entry is not None:
                fn, arg = entry
                fn(arg)
                count += 1
        return count
