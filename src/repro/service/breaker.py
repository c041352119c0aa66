"""Crash-rate circuit breaker: degrade to cache-only, never die.

A burst of worker crashes usually means something environmental -- a
bad deploy, an OOM-ing host, a poisoned benchmark -- and retrying
every submission into it just burns the pool.  The breaker watches a
sliding window of per-run outcomes and, when the crash fraction
crosses ``threshold``, trips **OPEN**: the service stops launching
workers and serves submissions from the shared result cache
(read-through); plans that would need execution land in the job's
failure manifest with reason ``"breaker-open"``.

After ``cooldown`` seconds the breaker lets exactly one job through
as a **HALF_OPEN** probe: a clean probe closes the breaker and clears
the window, a crashing probe re-opens it for another cooldown, and a
probe that runs nothing (all cache hits, errors or a cancel) abstains
and hands the probe slot to the next job.  The classic three-state
machine::

    CLOSED --(crash rate >= threshold)--> OPEN
    OPEN --(cooldown elapsed)--> HALF_OPEN
    HALF_OPEN --(probe clean)--> CLOSED
    HALF_OPEN --(probe crashed)--> OPEN

The clock is injectable so tests drive transitions deterministically.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple


class BreakerState(enum.Enum):
    """The breaker's position; values are the stable wire names."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Sliding-window crash-rate breaker with half-open probing.

    ``window`` is the number of recent run outcomes considered;
    ``threshold`` the crash fraction that trips the breaker (only
    once ``min_samples`` outcomes are in the window, so one early
    crash cannot trip it); ``cooldown`` the OPEN dwell in seconds.
    ``on_transition(old, new, crash_rate)`` fires on every state
    change -- the service uses it to count breaker opens.
    """

    def __init__(self, window: int = 20, threshold: float = 0.5,
                 min_samples: int = 4, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[Callable] = None) -> None:
        if window < 1:
            raise ValueError("breaker window must be at least 1 run")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("breaker threshold must be in (0, 1]")
        if min_samples < 1 or min_samples > window:
            raise ValueError("min_samples must be in [1, window]")
        if cooldown <= 0:
            raise ValueError("breaker cooldown must be positive seconds")
        self.window = window
        self.threshold = threshold
        self.min_samples = min_samples
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._probing = False
        #: (old state name, new state name) transition log, for tests
        #: and the /healthz endpoint.
        self.transitions: List[Tuple[str, str]] = []

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state; promotes OPEN to HALF_OPEN after cooldown."""
        if (self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.cooldown):
            self._move(BreakerState.HALF_OPEN)
        return self._state

    def crash_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for crashed in self._outcomes if crashed) \
            / len(self._outcomes)

    def _move(self, new: BreakerState) -> None:
        old = self._state
        if old is new:
            return
        self._state = new
        if new is BreakerState.OPEN:
            self._opened_at = self._clock()
            self._probing = False
        if new is BreakerState.CLOSED:
            self._outcomes.clear()
            self._probing = False
        self.transitions.append((old.value, new.value))
        if self._on_transition is not None:
            self._on_transition(old, new, self.crash_rate())

    # -- the service API -------------------------------------------------

    def allow_execution(self) -> bool:
        """May the next job launch workers (vs cache-only mode)?

        In HALF_OPEN exactly one caller gets ``True`` (the probe);
        further jobs stay cache-only until the probe reports back.
        """
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def abstain(self) -> None:
        """The probe ran nothing: the next job probes instead.

        Without this a probe served wholly from the cache would hold
        the slot forever and wedge the service in cache-only mode.
        """
        if self._state is BreakerState.HALF_OPEN:
            self._probing = False

    def record(self, crashed: bool) -> None:
        """Fold one executed run's outcome into the window."""
        if self._state is BreakerState.HALF_OPEN:
            # The probe's verdict decides the whole state, not a rate:
            # one crash during probing re-opens immediately.
            if crashed:
                self._move(BreakerState.OPEN)
            else:
                self._move(BreakerState.CLOSED)
            return
        self._outcomes.append(crashed)
        if (self._state is BreakerState.CLOSED
                and len(self._outcomes) >= self.min_samples
                and self.crash_rate() >= self.threshold):
            self._move(BreakerState.OPEN)
