"""The inter-cluster network: queuing, arbitration, delivery.

Ties together a :class:`~repro.interconnect.topology.Topology`, a
:class:`~repro.interconnect.plane.LinkComposition` and a
:class:`~repro.interconnect.selection.WireSelector`.

Model (Section 4 of the paper): transfers wait in unbounded buffers at
their source; each cycle, every wire plane of every channel can move as
many bits as it has wires.  A transfer is granted when *all* channels on
its path (source out-channel, any ring segments, destination in-channel)
have budget left on the chosen plane in that cycle -- a cut-through
approximation of the paper's fully pipelined links.  Granted segments
arrive after the plane's path latency; arrival calls the handler
registered for the transfer's kind (partial-slice arrivals call
:attr:`Network.partial_handlers`, the hook the accelerated cache
pipeline uses).

Fault injection (optional, via a
:class:`~repro.faults.injector.FaultInjector`):

* *Permanent plane kills* deactivate a (channel, plane) pair at a
  given cycle.  New transfers are planned around dead planes
  (:meth:`WireSelector.select` with ``avoid``); segments already queued
  on a dying plane are rerouted onto a surviving plane.
* *Transient corruption*: a granted segment may arrive corrupted (it
  still burned wires and energy).  The receiver NACKs; after a
  round-trip the source retransmits.  A segment that exhausts its retry
  budget escalates to a permanent plane-kill on its source link and is
  rerouted.
* *Delay derating* stretches a plane's path latency (process
  variation).

All fault decisions are pure functions of (seed, segment identity,
attempt), so faulted runs stay bit-deterministic.

One queue path serves every run.  Routes are memoized per (src, dst)
(:class:`_Route`: channels, energy weight and, per plane, the derated
latency and the hops' arbitration states), and every (channel, plane)
arbitrates through one :class:`_Chan` object -- plain attribute
arithmetic instead of dicts keyed by ``(channel, WireClass)`` tuples,
each lookup of which builds and hashes a tuple.  Plane kills,
retransmissions, sleeping planes (a
:class:`~repro.power.PlanePowerManager`, which owns all gating state)
and per-segment telemetry hook into that path, each behind a flag read
once per submit or tick into a local, so a healthy run pays only a few
local tests for them.  Queue items are recycled, and transfers the
processor recycles (``_pooled``) return to :attr:`Network.pool` once
their last segment has arrived.

A degraded run pays per submit only for what changed since the last
one.  Each memo below is a pure function of state that rarely changes,
and is dropped when that state changes:

* the dead planes of a path (``_dead_on``, keyed by route channels):
  cleared by every kill;
* the power manager's gateable slots per path: fixed by the topology;
  each slot's step-down cycles: dropped when a touch or wake moves its
  last use or traffic estimate, recomputed at the next settle;
* the selector's L-less flags and demand sets: fixed by the flags and
  composition;
* the fault injector's draw-key prefix per (plane, kind): fixed by the
  seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..power import GatingPolicy, PlanePowerManager, parse_gating
from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry
from ..wires import WireClass
from .errors import ConfigError, UnroutableError
from .message import Transfer, TransferKind
from .plane import LinkComposition
from .selection import PlannedSegment, PolicyFlags, WireSelector
from .stats import InterconnectStats, leakage_energy
from .topology import Topology

_NO_AVOID: FrozenSet[WireClass] = frozenset()
_NUM_PLANES = len(WireClass)

#: Arrival handler for recycled transfers: (transfer, arrival cycle).
Handler = Callable[[Transfer, int], None]


@dataclass
class _Queued:
    """A planned segment waiting at its source channel."""

    transfer: Transfer
    segment: PlannedSegment
    route: "_Route"
    latency: int
    energy_weight: int
    earliest_cycle: int
    #: Every hop's :class:`_Chan` on the segment's plane, source first.
    peers: List["_Chan"]
    attempt: int = 0


class _Route:
    """Memoized routing facts of one (src, dst) pair.

    ``by_plane[wire_class._index]`` is ``None`` when the link has no
    such plane, else ``(latency, peers)`` where ``latency`` is the
    plane's path latency after fault derating, or ``None`` when the
    topology defines none (submitting raises), and ``peers`` lists
    every hop's :class:`_Chan`; ``peers[0]`` queues the segments.
    """

    __slots__ = ("channels", "energy_weight", "by_plane")


class _Chan:
    """Arbitration state of one (channel, plane)."""

    __slots__ = ("key", "order", "queue", "head", "capacity",
                 "budget", "budget_cycle", "grants", "bits", "retx")

    def __init__(self, key: Tuple[str, WireClass], capacity: int) -> None:
        self.key = key
        #: Arbitration and report order: (channel, plane name).
        self.order = (key[0], key[1].value)
        self.queue: List[_Queued] = []
        self.head = 0
        self.capacity = capacity
        self.budget = 0
        self.budget_cycle = -1
        self.grants = 0
        self.bits = 0
        #: Retransmissions re-queued here after a NACK.
        self.retx = 0


def _chan_order(chan: _Chan) -> Tuple[str, str]:
    return chan.order


@dataclass(frozen=True)
class ChannelReport:
    """Utilization summary of one channel's wire plane."""

    channel: str
    wire_class: WireClass
    capacity_bits: int
    grants: int
    bits: int
    utilization: float
    retransmissions: int = 0


@dataclass(frozen=True)
class DegradationReport:
    """How much fault-induced degradation a network absorbed."""

    corrupted_segments: int
    retransmissions: int
    retry_escalations: int
    degraded_reroutes: int
    degraded_selections: int
    planes_killed: int
    retry_budget: int

    @property
    def any_degradation(self) -> bool:
        return bool(self.corrupted_segments or self.retransmissions
                    or self.retry_escalations or self.degraded_reroutes
                    or self.degraded_selections or self.planes_killed)


class Network:
    """Cycle-driven heterogeneous inter-cluster network."""

    #: Fixed histogram buckets: segment payload sizes (bits) and cycles
    #: a segment waited between eligibility and its grant.
    SEGMENT_BITS_BUCKETS = (18, 54, 72, 144, 288)
    GRANT_WAIT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

    def __init__(self, topology: Topology, composition: LinkComposition,
                 flags: Optional[PolicyFlags] = None,
                 injector: Optional["FaultInjector"] = None,
                 telemetry: Optional[Telemetry] = None,
                 gating: "str | GatingPolicy | None" = None) -> None:
        self.topology = topology
        self.composition = composition
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.selector = WireSelector(composition, flags,
                                     telemetry=self.telemetry)
        self.stats = InterconnectStats(specs=composition.specs_map())
        self.injector = injector
        # Gating: ``None``/""/"never" build no manager at all, keeping
        # ungated runs on the exact pre-gating code path.
        policy = parse_gating(gating)
        self.power: Optional[PlanePowerManager] = None
        if policy is not None:
            self.power = PlanePowerManager(topology, composition, policy,
                                           telemetry=self.telemetry)
        # Every (channel, plane) seen so far, and the ones with queued
        # segments: only those are arbitrated, so an idle network costs
        # nothing per tick.
        self._chans: Dict[Tuple[str, WireClass], _Chan] = {}
        self._active: set = set()
        self._routes: Dict[Tuple[str, str], _Route] = {}
        #: Recycled queue items (a delivery is a _Queued's last act).
        self._qpool: List[_Queued] = []
        self._deliveries: List[Tuple[int, int, _Queued]] = []
        self._delivery_seq = 0
        self._first_grant_cycle: Optional[int] = None
        self._last_grant_cycle = 0
        # Fault state: scheduled and activated plane kills, NACKed
        # segments awaiting their retransmission cycle.
        self._pending_kills: List[Tuple[int, str, WireClass]] = []
        self._dead: Dict[Tuple[str, WireClass], int] = {}
        #: Dead planes per path (route channels), built on first ask and
        #: cleared by every kill.
        self._dead_on: Dict[Tuple[str, ...], FrozenSet[WireClass]] = {}
        self._retries: List[Tuple[int, int, _Queued]] = []
        self._retry_seq = 0
        self._retry_budget = 4
        #: Fired (channel, plane, cycle) when a plane-kill takes effect;
        #: the processor hooks this to degrade instruction steering.
        self.on_plane_kill: Optional[
            Callable[[str, WireClass, int], None]] = None
        self._ber_active = False
        if injector is not None:
            self._retry_budget = injector.spec.retry_budget
            self._ber_active = injector.spec.ber > 0.0
            for cycle, channel, plane in injector.scheduled_kills(
                    topology.channels):
                if not composition.has_plane(plane):
                    raise ConfigError(
                        f"fault spec kills {plane.value}-Wires, but the "
                        f"link composition ({composition.describe()}) "
                        f"has no such plane"
                    )
                heapq.heappush(self._pending_kills,
                               (cycle, channel, plane))
        #: Arrival dispatch by transfer kind (complete transfer, leading
        #: slice) and the free list for recycled transfers; the
        #: processor installs them.
        self.final_handlers: Dict[TransferKind, Handler] = {}
        self.partial_handlers: Dict[TransferKind, Handler] = {}
        self.pool: Optional[List[Transfer]] = None

    # -- submission ------------------------------------------------------

    def submit(self, transfer: Transfer, cycle: int) -> None:
        """Plan a transfer's segments and queue them for arbitration."""
        route = self._routes.get((transfer.src, transfer.dst))
        if route is None:
            route = self._route(transfer.src, transfer.dst)
        channels = route.channels
        avoid = _NO_AVOID
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._dead:
            avoid = self._dead_planes_on(channels)
        selector = self.selector
        power = self.power
        if power is not None:
            # Sleeping planes join the avoid set through the same
            # degraded-selection machinery dead planes use; demanded
            # ones start their wake-up here.
            avoid = power.route_avoid(channels, cycle,
                                      selector.demand_planes(transfer),
                                      avoid)
        segments = selector.select(transfer, cycle, avoid=avoid)
        if len(segments) > 1:
            self.stats.split_transfers += 1
        tel = self.telemetry
        traced = tel.enabled
        energy_weight = route.energy_weight
        by_plane = route.by_plane
        qpool = self._qpool
        active = self._active
        for segment in segments:
            wire_class = segment.wire_class
            entry = by_plane[wire_class._index]
            if entry is None:
                self._missing_plane(transfer, wire_class)
            latency, peers = entry
            selector.record_injection(cycle, wire_class)
            if power is not None:
                power.note_activity(channels, wire_class, cycle)
            if traced:
                tel.count("network.segments_routed")
                tel.emit(cycle, EventKind.TRANSFER_ROUTED, {
                    "kind": transfer.kind._value_,
                    "plane": wire_class._value_,
                    "bits": segment.bits,
                    "src": transfer.src,
                    "dst": transfer.dst,
                    "channel": channels[0],
                })
            if latency is None:
                self._missing_latency(transfer, wire_class)
            if qpool:
                item = qpool.pop()
                item.transfer = transfer
                item.segment = segment
                item.route = route
                item.latency = latency
                item.energy_weight = energy_weight
                item.earliest_cycle = cycle + segment.submit_delay
                item.attempt = 0
                item.peers = peers
            else:
                item = _Queued(
                    transfer=transfer,
                    segment=segment,
                    route=route,
                    latency=latency,
                    energy_weight=energy_weight,
                    earliest_cycle=cycle + segment.submit_delay,
                    peers=peers,
                )
            chan = peers[0]
            chan.queue.append(item)
            active.add(chan)
        transfer._segs_left = len(segments)

    def _missing_plane(self, transfer: Transfer,
                       wire_class: WireClass) -> None:
        raise ConfigError(
            f"transfer {transfer.kind.value} "
            f"({transfer.src}->{transfer.dst}) requests "
            f"{wire_class.value}-Wires, but the link composition "
            f"({self.composition.describe()}) has no such plane"
        )

    def _missing_latency(self, transfer: Transfer,
                         wire_class: WireClass) -> None:
        raise ConfigError(
            f"transfer {transfer.kind.value} requests "
            f"{wire_class.value}-Wires, but the path "
            f"({transfer.src}->{transfer.dst}) defines no latency "
            f"for that plane"
        )

    def _route(self, src: str, dst: str) -> _Route:
        """Build and memoize the routing facts of (src, dst)."""
        path = self.topology.path(src, dst)
        route = _Route()
        route.channels = channels = path.channels
        route.energy_weight = path.energy_weight
        route.by_plane = by_plane = [None] * _NUM_PLANES
        injector = self.injector
        for wire_class in WireClass:
            if not self.composition.has_plane(wire_class):
                continue
            latency = path.latency.get(wire_class)
            if latency is not None and injector is not None:
                latency = injector.scaled_latency(wire_class, latency)
            by_plane[wire_class._index] = (latency, [
                self._chan((channel, wire_class)) for channel in channels
            ])
        self._routes[(src, dst)] = route
        return route

    def _chan(self, key: Tuple[str, WireClass]) -> _Chan:
        chan = self._chans.get(key)
        if chan is None:
            chan = self._chans[key] = _Chan(key, self._capacity(key))
        return chan

    # -- fault machinery -------------------------------------------------

    def _activate_kills(self, cycle: int) -> None:
        """Move due scheduled kills into the dead set."""
        pending = self._pending_kills
        while pending and pending[0][0] <= cycle:
            kill_cycle, channel, plane = heapq.heappop(pending)
            self._kill(channel, plane, max(kill_cycle, cycle))

    def _kill(self, channel: str, plane: WireClass, cycle: int) -> None:
        key = (channel, plane)
        if key in self._dead:
            return
        self._dead[key] = cycle
        self._dead_on.clear()
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.plane_kills")
            tel.emit(cycle, EventKind.PLANE_KILL, {
                "channel": channel,
                "plane": plane._value_,
            })
        if self.on_plane_kill is not None:
            self.on_plane_kill(channel, plane, cycle)

    def _dead_planes_on(
            self, channels: Tuple[str, ...]) -> FrozenSet[WireClass]:
        planes = self._dead_on.get(channels)
        if planes is None:
            planes = self._dead_on[channels] = frozenset(
                plane for (channel, plane) in self._dead
                if channel in channels
            )
        return planes

    def _blocked_by_kill(self, item: _Queued, plane: WireClass) -> bool:
        dead = self._dead
        for channel in item.route.channels:
            if (channel, plane) in dead:
                return True
        return False

    def _reroute(self, item: _Queued, cycle: int) -> None:
        """Move a stranded segment onto a surviving plane."""
        route = item.route
        channels = route.channels
        avoid = self._dead_planes_on(channels)
        power = self.power
        if power is not None:
            avoid = power.route_avoid(channels, cycle, _NO_AVOID, avoid)
        wire_class = self._surviving_plane(item, avoid)
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.reroutes")
            tel.emit(cycle, EventKind.REROUTE, {
                "channel": channels[0],
                "from": item.segment.wire_class._value_,
                "to": wire_class._value_,
                "bits": item.segment.bits,
            })
        latency, peers = route.by_plane[wire_class._index]
        if latency is None:
            self._missing_latency(item.transfer, wire_class)
        item.segment = replace(item.segment, wire_class=wire_class)
        item.latency = latency
        item.peers = peers
        item.earliest_cycle = cycle
        item.attempt = 0
        self.stats.degraded_reroutes += 1
        self.selector.record_injection(cycle, wire_class)
        if power is not None:
            power.note_activity(channels, wire_class, cycle)
        peers[0].queue.append(item)
        self._active.add(peers[0])

    def _surviving_plane(self, item: _Queued,
                         avoid: FrozenSet[WireClass]) -> WireClass:
        """A live plane wide enough for the segment, bulk planes first.

        The L plane is a last resort: it can only carry messages that
        fit its (narrow) width in one cycle.
        """
        bits = item.segment.bits
        channels = item.route.channels
        for wire_class in (WireClass.B, WireClass.PW, WireClass.W,
                           WireClass.L):
            if (not self.composition.has_plane(wire_class)
                    or wire_class in avoid):
                continue
            if all(bits <= self._capacity((ch, wire_class))
                   for ch in channels):
                return wire_class
        dead = ", ".join(sorted(w.value for w in avoid)) or "none"
        raise UnroutableError(
            f"no surviving plane can carry {bits} bits on path "
            f"{'>'.join(channels)} (composition: "
            f"{self.composition.describe()}; dead planes: {dead})"
        )

    def _process_retries(self, cycle: int) -> None:
        """Requeue NACKed segments whose retransmission cycle arrived."""
        retries = self._retries
        stats = self.stats
        while retries and retries[0][0] <= cycle:
            _, _, item = heapq.heappop(retries)
            plane = item.segment.wire_class
            channel = item.route.channels[0]
            tel = self.telemetry
            if item.attempt >= self._retry_budget:
                # Persistent corruption: treat the source link's plane
                # as broken and fall back to the surviving planes.
                stats.retry_escalations += 1
                if tel.enabled:
                    tel.count("faults.retry_escalations")
                    tel.emit(cycle, EventKind.RETRY_ESCALATION, {
                        "channel": channel,
                        "plane": plane._value_,
                        "attempts": item.attempt,
                    })
                self._kill(channel, plane, cycle)
                self._reroute(item, cycle)
                continue
            item.attempt += 1
            item.earliest_cycle = cycle
            stats.retransmissions += 1
            if tel.enabled:
                tel.count("faults.retransmissions")
                tel.emit(cycle, EventKind.NACK_RETRY, {
                    "channel": channel,
                    "plane": plane._value_,
                    "attempt": item.attempt,
                })
            chan = item.peers[0]
            chan.retx += 1
            chan.queue.append(item)
            self._active.add(chan)

    def _corrupted(self, item: _Queued, plane: WireClass, bits: int,
                   cycle: int) -> bool:
        """Whether a granted segment arrives corrupt; if so, NACK it.

        The segment burned wires and energy either way; a corrupt one
        fires no arrival callbacks, and the source retransmits it after
        a round trip.
        """
        transfer = item.transfer
        if not self.injector.corrupts(
                plane, transfer.kind._value_, transfer.seq, bits,
                len(item.route.channels), item.attempt,
                item.segment.is_leading_slice):
            return False
        self.stats.corrupted_segments += 1
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.corrupted_segments")
            tel.emit(cycle, EventKind.CORRUPTION, {
                "kind": transfer.kind._value_,
                "plane": plane._value_,
                "seq": transfer.seq,
                "attempt": item.attempt,
            })
        self._retry_seq += 1
        heapq.heappush(
            self._retries,
            (cycle + 2 * item.latency + 1, self._retry_seq, item),
        )
        return True

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        """Arbitrate all queued segments for this cycle's wire budgets."""
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._retries:
            self._process_retries(cycle)
        active = self._active
        if not active:
            return
        stats = self.stats
        deliveries = self._deliveries
        tally = stats._tally
        faulty = bool(self._dead)
        ber = self._ber_active
        tel = self.telemetry
        traced = tel.enabled
        granted_any = False
        drained = None
        # A snapshot: a queue a reroute activates mid-tick waits for
        # the next tick.
        order = (sorted(active, key=_chan_order)
                 if len(active) > 1 else tuple(active))
        for chan in order:
            queue = chan.queue
            head = chan.head
            length = len(queue)
            plane = chan.key[1]
            while head < length:
                item = queue[head]
                if item.earliest_cycle > cycle:
                    break
                if faulty and self._blocked_by_kill(item, plane):
                    # The plane died under this segment: hand it to a
                    # surviving plane instead of stalling forever.
                    head += 1
                    self._reroute(item, cycle)
                    continue
                bits = item.segment.bits
                peers = item.peers
                blocked = False
                for peer in peers:
                    if peer.budget_cycle != cycle:
                        peer.budget = 0
                        peer.budget_cycle = cycle
                    if peer.budget + bits > peer.capacity:
                        blocked = True
                        break
                if blocked:
                    break
                for peer in peers:
                    peer.budget += bits
                    peer.grants += 1
                    peer.bits += bits
                granted_any = True
                head += 1
                tkey = (plane, bits, item.energy_weight,
                        item.transfer.kind)
                tally[tkey] = tally.get(tkey, 0) + 1
                if traced:
                    tel.observe("network.segment_bits", bits,
                                self.SEGMENT_BITS_BUCKETS)
                    tel.observe("network.grant_wait_cycles",
                                max(0, cycle - item.earliest_cycle),
                                self.GRANT_WAIT_BUCKETS)
                if ber and self._corrupted(item, plane, bits, cycle):
                    continue
                self._delivery_seq += 1
                heapq.heappush(
                    deliveries,
                    (cycle + item.latency, self._delivery_seq, item),
                )
            stats.buffered_cycles += length - head
            if head >= length:
                queue.clear()
                head = 0
                if drained is None:
                    drained = [chan]
                else:
                    drained.append(chan)
            elif head > 64:
                del queue[:head]
                head = 0
            chan.head = head
        if granted_any:
            if self._first_grant_cycle is None:
                self._first_grant_cycle = cycle
            self._last_grant_cycle = cycle
        if drained:
            for chan in drained:
                # A reroute later in this tick may have refilled it.
                if not chan.queue:
                    active.discard(chan)

    def deliver_due(self, cycle: int) -> None:
        """Fire arrivals for every segment due by ``cycle``."""
        deliveries = self._deliveries
        if not deliveries or deliveries[0][0] > cycle:
            return
        heappop = heapq.heappop
        finals = self.final_handlers
        partials = self.partial_handlers
        pool = self.pool
        qpool = self._qpool
        while deliveries and deliveries[0][0] <= cycle:
            arrival, _, item = heappop(deliveries)
            transfer = item.transfer
            segment = item.segment
            if segment.is_leading_slice:
                handler = partials.get(transfer.kind)
                if handler is not None:
                    handler(transfer, arrival)
            if segment.is_final_slice:
                handler = finals.get(transfer.kind)
                if handler is not None:
                    handler(transfer, arrival)
            if transfer._pooled:
                transfer._segs_left -= 1
                if transfer._segs_left <= 0 and pool is not None:
                    transfer.payload = None
                    pool.append(transfer)
            # A delivery is the queue item's last act: recycle it.
            item.transfer = None
            qpool.append(item)

    # -- introspection ----------------------------------------------------

    def _capacity(self, key: Tuple[str, WireClass]) -> int:
        channel, plane = key
        width = self.composition.plane(plane).width
        return width * self.topology.channel_width_factor(channel)

    def idle(self) -> bool:
        """True when nothing is queued, in flight or awaiting retry."""
        return (not self._active and not self._deliveries
                and not self._retries)

    def next_event_cycle(self) -> Optional[int]:
        """Earliest future delivery/retry, for event-skipping cores."""
        candidates = []
        if self._deliveries:
            candidates.append(self._deliveries[0][0])
        if self._retries:
            candidates.append(self._retries[0][0])
        if self._pending_kills:
            candidates.append(self._pending_kills[0][0])
        if candidates:
            return min(candidates)
        return None

    def dead_planes(self) -> Tuple[Tuple[str, WireClass, int], ...]:
        """(channel, plane, kill cycle) for every deactivated plane."""
        return tuple(
            (channel, plane, cycle)
            for (channel, plane), cycle in sorted(
                self._dead.items(), key=lambda kv: (kv[1], kv[0][0],
                                                    kv[0][1].value))
        )

    def degradation_report(self) -> DegradationReport:
        """Fault-tolerance counters, aggregated network-wide.

        ``planes_killed`` reflects the *current* dead set (it survives
        measurement resets); the remaining counters cover the measured
        window.
        """
        return DegradationReport(
            corrupted_segments=self.stats.corrupted_segments,
            retransmissions=self.stats.retransmissions,
            retry_escalations=self.stats.retry_escalations,
            degraded_reroutes=self.stats.degraded_reroutes,
            degraded_selections=self.selector.degraded_selections,
            planes_killed=len(self._dead),
            retry_budget=self._retry_budget,
        )

    def utilization_report(self,
                           cycles: Optional[int] = None
                           ) -> List[ChannelReport]:
        """Per-channel, per-plane utilization, busiest first.

        ``cycles`` is the observation window; defaults to the span
        between the first and last grant seen.
        """
        if cycles is None:
            if self._first_grant_cycle is None:
                return []
            cycles = max(1, self._last_grant_cycle
                         - self._first_grant_cycle + 1)
        if cycles < 1:
            raise ValueError("cycles must be positive")
        reports = []
        # Sorted so equal-utilization rows tie-break by (channel,
        # plane) instead of by whatever order traffic first touched
        # them -- the report must survive refactors of the grant path.
        for chan in sorted(self._chans.values(), key=_chan_order):
            if not chan.grants:
                continue
            channel, plane = chan.key
            reports.append(ChannelReport(
                channel=channel,
                wire_class=plane,
                capacity_bits=chan.capacity,
                grants=chan.grants,
                bits=chan.bits,
                utilization=chan.bits / (chan.capacity * cycles),
                retransmissions=chan.retx,
            ))
        reports.sort(key=lambda r: -r.utilization)
        return reports

    def wire_inventory(self) -> Dict[WireClass, int]:
        """Physical wires per class across all links (for leakage)."""
        inventory: Dict[WireClass, int] = {}
        for _, factor in self.topology.link_inventory():
            for wc, count in self.composition.total_wires(False).items():
                inventory[wc] = inventory.get(wc, 0) + count * factor
        return inventory

    def leakage_energy(self, cycles: int) -> float:
        if self.power is not None:
            return self.power.leakage_energy(cycles)
        return leakage_energy(self.wire_inventory(), cycles,
                              specs=self.composition.specs_map())
