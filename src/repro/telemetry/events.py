"""Typed, cycle-stamped trace events.

Every observable decision the simulator makes -- which wire plane a
transfer rides and why, a load-balance divert onto the PW plane, a
NACK/retransmission, a plane kill, a cache hit level -- is one
:class:`TraceEvent`: a cycle stamp, an :class:`EventKind` and a sorted
tuple of attributes.  Events are immutable and JSON-serializable; the
category mapping groups kinds into the buckets the Chrome-trace export
and the sweep aggregation report on (``wire-selection``, ``overflow``,
``fault``, ``power``, ``cache``, ``network``, ``steering``, ``run``,
``service``).  The ``service`` kinds are emitted by the sweep job
server (:mod:`repro.service`), which stamps them with a logical
admission tick instead of a simulator cycle.

Determinism: an event is a pure function of simulator state -- no wall
clock, no process identity.  Timestamps are *cycles*, and a correctly
instrumented component only ever emits with its current cycle, so a
trace's stamps are monotonically non-decreasing in emission order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple


class EventKind(enum.Enum):
    """What happened.  The value is the stable on-disk name."""

    #: Measured window opened (attrs: benchmark, instructions, warmup).
    RUN_START = "run_start"
    #: Measured window closed (attrs: committed, cycles).
    RUN_END = "run_end"
    #: A transfer segment was planned onto a wire plane and queued.
    TRANSFER_ROUTED = "transfer_routed"
    #: The wire-selection policy chose planes for a transfer (attrs:
    #: kind, reason, plane).
    WIRE_SELECTED = "wire_selected"
    #: Load-imbalance rule diverted bulk traffic to the other plane
    #: (the paper's "overflow to PW-Wires" criterion).
    LB_DIVERT = "lb_divert"
    #: Steering overflow: the heaviest cluster was full, the
    #: instruction spilled to the nearest cluster with room.
    STEER_OVERFLOW = "steer_overflow"
    #: A degraded link added a steering penalty to a cluster.
    STEERING_PENALTY = "steering_penalty"
    #: A (channel, plane) pair was permanently deactivated.
    PLANE_KILL = "plane_kill"
    #: A granted segment arrived corrupted (transient fault).
    CORRUPTION = "corruption"
    #: A NACKed segment was retransmitted.
    NACK_RETRY = "nack_retry"
    #: A segment exhausted its retry budget and escalated to a kill.
    RETRY_ESCALATION = "retry_escalation"
    #: A stranded segment was rerouted onto a surviving plane.
    REROUTE = "reroute"
    #: A wire plane stepped down to a low-power state (attrs: link,
    #: plane, state, cycle -- the *effective* transition cycle; the
    #: event stamp is the cycle the lazy settler discovered it).
    PLANE_GATED = "plane_gated"
    #: A sleeping wire plane began (or was forced through) its wake-up
    #: (attrs: link, plane, from, ready, forced).
    PLANE_WOKEN = "plane_woken"
    #: A load was satisfied at some level of the memory hierarchy.
    CACHE_ACCESS = "cache_access"
    #: Sweep service: a job passed admission control onto the queue.
    JOB_ADMITTED = "job_admitted"
    #: Sweep service: a job with retryable failures was requeued.
    JOB_RETRY = "job_retry"
    #: Sweep service: worker crash rate tripped the circuit breaker
    #: (degraded to cache-only mode).
    BREAKER_OPEN = "breaker_open"
    #: Sweep service: a half-open probe succeeded; normal execution
    #: resumed.
    BREAKER_CLOSE = "breaker_close"


#: Category each kind reports under (Chrome-trace ``cat`` field).
EVENT_CATEGORY: Dict[EventKind, str] = {
    EventKind.RUN_START: "run",
    EventKind.RUN_END: "run",
    EventKind.TRANSFER_ROUTED: "network",
    EventKind.WIRE_SELECTED: "wire-selection",
    EventKind.LB_DIVERT: "overflow",
    EventKind.STEER_OVERFLOW: "overflow",
    EventKind.STEERING_PENALTY: "steering",
    EventKind.PLANE_KILL: "fault",
    EventKind.CORRUPTION: "fault",
    EventKind.NACK_RETRY: "fault",
    EventKind.RETRY_ESCALATION: "fault",
    EventKind.REROUTE: "fault",
    EventKind.PLANE_GATED: "power",
    EventKind.PLANE_WOKEN: "power",
    EventKind.CACHE_ACCESS: "cache",
    EventKind.JOB_ADMITTED: "service",
    EventKind.JOB_RETRY: "service",
    EventKind.BREAKER_OPEN: "service",
    EventKind.BREAKER_CLOSE: "service",
}

#: The categories every simulator trace may contain.
ALL_CATEGORIES: Tuple[str, ...] = tuple(sorted(set(EVENT_CATEGORY.values())))


@dataclass(frozen=True, init=False)
class TraceEvent:
    """One cycle-stamped, typed observation."""

    cycle: int
    kind: EventKind
    attrs: Tuple[Tuple[str, object], ...] = ()

    def __init__(self, cycle: int, kind: EventKind,
                 attrs: Tuple[Tuple[str, object], ...] = ()) -> None:
        # Hand-written: one frame per event instead of the generated
        # __init__ plus __post_init__.
        if cycle < 0:
            raise ValueError("event cycle must be non-negative")
        _set = object.__setattr__
        _set(self, "cycle", cycle)
        _set(self, "kind", kind)
        _set(self, "attrs", attrs)

    @property
    def category(self) -> str:
        return EVENT_CATEGORY[self.kind]

    def attr(self, name: str, default: object = None) -> object:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def to_json(self) -> Dict[str, object]:
        """A JSON-ready dict (stable key order via sorted attrs)."""
        return {
            "cycle": self.cycle,
            "kind": self.kind._value_,
            "category": self.category,
            "attrs": {k: v for k, v in self.attrs},
        }


def make_event(cycle: int, kind: EventKind,
               attrs: Optional[Mapping[str, object]] = None) -> TraceEvent:
    """Build an event with attributes in sorted (deterministic) order."""
    if not attrs:
        return TraceEvent(cycle, kind)
    return TraceEvent(cycle, kind, tuple(sorted(attrs.items())))
