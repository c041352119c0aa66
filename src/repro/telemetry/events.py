"""Typed, cycle-stamped trace events.

Every observable decision the simulator makes -- which wire plane a
transfer rides and why, a load-balance divert onto the PW plane, a
NACK/retransmission, a plane kill, a cache hit level -- is one
:class:`TraceEvent`: a cycle stamp, an :class:`EventKind`, a sorted
tuple of attribute names and the matching values.  Events are immutable
and JSON-serializable; the category mapping groups kinds into the
buckets the Chrome-trace export and the sweep aggregation report on
(``wire-selection``, ``overflow``, ``fault``, ``power``, ``cache``,
``network``, ``steering``, ``run``, ``service``).  The ``service``
kinds are emitted by the sweep job server (:mod:`repro.service`),
which stamps them with a logical admission tick instead of a
simulator cycle.

Determinism: an event is a pure function of simulator state -- no wall
clock, no process identity.  Timestamps are *cycles*, and a correctly
instrumented component only ever emits with its current cycle, so a
trace's stamps are monotonically non-decreasing in emission order.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Dict, Mapping, Optional, Tuple


class EventKind(enum.Enum):
    """What happened.  The value is the stable on-disk name."""

    #: Whole run opened, before warm-up (attrs: benchmark,
    #: instructions, seed, warmup).
    RUN_START = "run_start"
    #: Whole run closed (attrs: benchmark, and the measured window's
    #: committed and cycles).
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
    EventKind.BREAKER_OPEN: "service",
    EventKind.BREAKER_CLOSE: "service",
}

#: The categories every simulator trace may contain.
ALL_CATEGORIES: Tuple[str, ...] = tuple(sorted(set(EVENT_CATEGORY.values())))

# Each kind's category as a plain attribute on the member: an enum
# member's hash is a Python-level call, which an EVENT_CATEGORY lookup
# per exported event would pay.
for _kind, _category in EVENT_CATEGORY.items():
    _kind._category = _category
del _kind, _category


def event_names(*names: str) -> Tuple[str, ...]:
    """The attribute names of one emit site, checked once at import.

    An event's ``names`` must be sorted and duplicate-free: equality,
    hashing and every export read them in that order.  Each emit site
    defines its tuple once as a module constant through this helper, so
    no event pays for the check.
    """
    if names != tuple(sorted(set(names))):
        raise ValueError(
            f"event attribute names must be sorted and unique: {names}"
        )
    return names


class TraceEvent(tuple):
    """One cycle-stamped, typed observation: the immutable record
    ``(cycle, kind, names, values)``.

    ``names`` is a sorted, duplicate-free tuple of attribute names
    (an emit site's :func:`event_names` constant) and ``values`` the
    matching values, so an event costs one values tuple and this record.
    Every construction checks that the cycle is non-negative and that
    ``names`` and ``values`` have the same length.
    """

    __slots__ = ()

    def __new__(cls, cycle: int, kind: EventKind,
                names: Tuple[str, ...] = (),
                values: Tuple[object, ...] = ()) -> "TraceEvent":
        if cycle < 0:
            raise ValueError("event cycle must be non-negative")
        if len(names) != len(values):
            raise ValueError(
                f"event {kind._value_!r} has {len(names)} attribute "
                f"names but {len(values)} values"
            )
        return tuple.__new__(cls, (cycle, kind, names, values))

    def __getnewargs__(self) -> Tuple[object, ...]:
        return tuple(self)

    cycle = property(itemgetter(0))
    kind = property(itemgetter(1))
    names = property(itemgetter(2))
    values = property(itemgetter(3))

    @property
    def attrs(self) -> Tuple[Tuple[str, object], ...]:
        """The sorted ``(name, value)`` pairs."""
        return tuple(zip(self[2], self[3], strict=True))

    @property
    def category(self) -> str:
        return self[1]._category

    def attr(self, name: str, default: object = None) -> object:
        names = self[2]
        if name in names:
            return self[3][names.index(name)]
        return default

    def to_json(self) -> Dict[str, object]:
        """A JSON-ready dict (stable key order via sorted names)."""
        kind = self[1]
        return {
            "cycle": self[0],
            "kind": kind._value_,
            "category": kind._category,
            "attrs": dict(zip(self[2], self[3], strict=True)),
        }

    def __repr__(self) -> str:
        return (f"TraceEvent(cycle={self[0]}, kind={self[1]._value_}, "
                f"attrs={self.attrs!r})")


def make_event(cycle: int, kind: EventKind,
               attrs: Optional[Mapping[str, object]] = None) -> TraceEvent:
    """The event for an attribute mapping (names sorted), for callers
    whose attributes vary; emit sites with fixed names pass their
    :func:`event_names` constant and a values tuple instead."""
    if not attrs:
        return TraceEvent(cycle, kind)
    names = tuple(sorted(attrs))
    return TraceEvent(cycle, kind, names, tuple(attrs[n] for n in names))
