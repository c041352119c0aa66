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

Two queue representations, chosen once per network from its own
inputs:

* *Batched* (no fault injector, no gating policy, telemetry off):
  routes are memoized per (src, dst), every (channel, plane) arbitrates
  through one :class:`_Chan` object -- plain attribute arithmetic
  instead of dicts keyed by ``(channel, WireClass)``, whose hashes go
  through Python-level ``Enum.__hash__`` -- and queue items are
  recycled.
* *Keyed* (faulted, gated or traced networks): per-(channel, plane)
  dicts, which plane kills, retransmissions, sleeping planes and
  per-segment telemetry hook into.

Both record grants through the same stats tally, so the same traffic
yields the same numbers either way.  Transfers the processor recycles
(``_pooled``) return to :attr:`Network.pool` once their last segment has
arrived.
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
    path_channels: Tuple[str, ...]
    latencies: Dict[WireClass, int]
    latency: int
    energy_weight: int
    earliest_cycle: int
    attempt: int = 0
    #: Every hop's :class:`_Chan` on a multi-hop batched path.
    peers: Optional[List["_Chan"]] = None


class _Route:
    """Memoized per-(src, dst) routing state of the batched path.

    ``by_plane[wire_class._index]`` is ``None`` when the link has no
    such plane, else ``(latency, chan, peers)`` where ``latency`` may be
    ``None`` (missing from the topology: submitting raises),
    ``chan`` arbitrates the first hop and ``peers`` lists every hop's
    :class:`_Chan` on multi-hop paths (``None`` on single-hop ones).
    """

    __slots__ = ("channels", "latencies", "energy_weight", "by_plane")


class _Chan:
    """Arbitration state of one (channel, plane) on the batched path."""

    __slots__ = ("key", "order", "queue", "head", "capacity",
                 "budget", "budget_cycle", "grants", "bits")

    def __init__(self, key: Tuple[str, WireClass], capacity: int) -> None:
        self.key = key
        #: Arbitration order, identical to the keyed path's.
        self.order = _queue_order(key)
        self.queue: List[_Queued] = []
        self.head = 0
        self.capacity = capacity
        self.budget = 0
        self.budget_cycle = -1
        self.grants = 0
        self.bits = 0


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
        # Per (out-channel, plane) FIFO queues; only non-empty ones are in
        # ``_active`` so an idle network costs nothing per tick.
        self._queues: Dict[Tuple[str, WireClass], List[_Queued]] = {}
        self._queue_heads: Dict[Tuple[str, WireClass], int] = {}
        self._active: set = set()
        self._deliveries: List[Tuple[int, int, _Queued]] = []
        self._delivery_seq = 0
        self._budget: Dict[Tuple[str, WireClass], int] = {}
        self._budget_cycle = -1
        self._capacity_cache: Dict[Tuple[str, WireClass], int] = {}
        # Per-(channel, plane) grant/bit counters for utilization reports.
        self._channel_grants: Dict[Tuple[str, WireClass], int] = {}
        self._channel_bits: Dict[Tuple[str, WireClass], int] = {}
        self._channel_retx: Dict[Tuple[str, WireClass], int] = {}
        self._first_grant_cycle: Optional[int] = None
        self._last_grant_cycle = 0
        # Fault state: scheduled and activated plane kills, NACKed
        # segments awaiting their retransmission cycle.
        self._pending_kills: List[Tuple[int, str, WireClass]] = []
        self._dead: Dict[Tuple[str, WireClass], int] = {}
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
        # Batched-path state (see the module docstring).
        self._batched = (injector is None and self.power is None
                         and not self.telemetry.enabled)
        self._chans: Dict[Tuple[str, WireClass], _Chan] = {}
        self._active_chans: set = set()
        self._routes: Dict[Tuple[str, str], _Route] = {}
        self._peer_cache: Dict[Tuple[Tuple[str, ...], WireClass],
                               List[_Chan]] = {}
        self._planes = frozenset(
            w for w in WireClass if composition.has_plane(w)
        )
        #: Recycled queue items (a delivery is a _Queued's last act).
        self._qpool: List[_Queued] = []

    # -- submission ------------------------------------------------------

    def submit(self, transfer: Transfer, cycle: int) -> None:
        """Plan a transfer's segments and queue them for arbitration."""
        if not self._batched:
            self._submit_keyed(transfer, cycle)
            return
        route = self._routes.get((transfer.src, transfer.dst))
        if route is None:
            route = self._route(transfer.src, transfer.dst)
        selector = self.selector
        segments = selector.select(transfer, cycle, avoid=_NO_AVOID)
        if len(segments) > 1:
            self.stats.split_transfers += 1
        channels = route.channels
        latencies = route.latencies
        energy_weight = route.energy_weight
        by_plane = route.by_plane
        qpool = self._qpool
        active = self._active_chans
        for segment in segments:
            wire_class = segment.wire_class
            entry = by_plane[wire_class._index]
            if entry is None:
                self._missing_plane(transfer, wire_class)
            latency, chan, peers = entry
            selector.record_injection(cycle, wire_class)
            if latency is None:
                self._plane_latency(transfer, latencies, wire_class)
            if qpool:
                item = qpool.pop()
                item.transfer = transfer
                item.segment = segment
                item.path_channels = channels
                item.latencies = latencies
                item.latency = latency
                item.energy_weight = energy_weight
                item.earliest_cycle = cycle + segment.submit_delay
                item.attempt = 0
                item.peers = peers
            else:
                item = _Queued(
                    transfer=transfer,
                    segment=segment,
                    path_channels=channels,
                    latencies=latencies,
                    latency=latency,
                    energy_weight=energy_weight,
                    earliest_cycle=cycle + segment.submit_delay,
                    peers=peers,
                )
            chan.queue.append(item)
            active.add(chan)
        transfer._segs_left = len(segments)

    def _submit_keyed(self, transfer: Transfer, cycle: int) -> None:
        path = self.topology.path(transfer.src, transfer.dst)
        avoid = _NO_AVOID
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._dead:
            avoid = self._dead_planes_on(path.channels)
        power = self.power
        if power is not None:
            # Sleeping planes join the avoid set through the same
            # degraded-selection machinery dead planes use; demanded
            # ones start their wake-up here.
            avoid = power.route_avoid(
                path.channels, cycle,
                self.selector.demand_planes(transfer), avoid,
            )
        segments = self.selector.select(transfer, cycle, avoid=avoid)
        if len(segments) > 1:
            self.stats.split_transfers += 1
        for segment in segments:
            wire_class = segment.wire_class
            if not self.composition.has_plane(wire_class):
                self._missing_plane(transfer, wire_class)
            self.selector.record_injection(cycle, wire_class)
            if power is not None:
                power.note_activity(path.channels, wire_class, cycle)
            tel = self.telemetry
            if tel.enabled:
                tel.count("network.segments_routed")
                tel.emit(cycle, EventKind.TRANSFER_ROUTED, {
                    "kind": transfer.kind.value,
                    "plane": wire_class.value,
                    "bits": segment.bits,
                    "src": transfer.src,
                    "dst": transfer.dst,
                    "channel": path.channels[0],
                })
            key = (path.channels[0], wire_class)
            queued = _Queued(
                transfer=transfer,
                segment=segment,
                path_channels=path.channels,
                latencies=path.latency,
                latency=self._plane_latency(transfer, path.latency,
                                            wire_class),
                energy_weight=path.energy_weight,
                earliest_cycle=cycle + segment.submit_delay,
            )
            self._enqueue(key, queued)
        transfer._segs_left = len(segments)

    def _missing_plane(self, transfer: Transfer,
                       wire_class: WireClass) -> None:
        raise ConfigError(
            f"transfer {transfer.kind.value} "
            f"({transfer.src}->{transfer.dst}) requests "
            f"{wire_class.value}-Wires, but the link composition "
            f"({self.composition.describe()}) has no such plane"
        )

    def _route(self, src: str, dst: str) -> _Route:
        """Build and memoize the batched routing state of (src, dst)."""
        path = self.topology.path(src, dst)
        route = _Route()
        route.channels = channels = path.channels
        route.latencies = latencies = path.latency
        route.energy_weight = path.energy_weight
        route.by_plane = by_plane = [None] * _NUM_PLANES
        multi = len(channels) > 1
        for wire_class in WireClass:
            if wire_class not in self._planes:
                continue
            peers = self._peers(channels, wire_class) if multi else None
            by_plane[wire_class._index] = (
                latencies.get(wire_class),
                self._chan((channels[0], wire_class)), peers,
            )
        self._routes[(src, dst)] = route
        return route

    def _chan(self, key: Tuple[str, WireClass]) -> _Chan:
        chan = self._chans.get(key)
        if chan is None:
            chan = self._chans[key] = _Chan(key, self._capacity(key))
        return chan

    def _peers(self, channels: Tuple[str, ...],
               plane: WireClass) -> List[_Chan]:
        """The per-hop arbitration states of a multi-hop path."""
        pkey = (channels, plane)
        peers = self._peer_cache.get(pkey)
        if peers is None:
            peers = self._peer_cache[pkey] = [
                self._chan((channel, plane)) for channel in channels
            ]
        return peers

    def _plane_latency(self, transfer: Transfer,
                       latencies: Dict[WireClass, int],
                       wire_class: WireClass) -> int:
        base = latencies.get(wire_class)
        if base is None:
            raise ConfigError(
                f"transfer {transfer.kind.value} requests "
                f"{wire_class.value}-Wires, but the path "
                f"({transfer.src}->{transfer.dst}) defines no latency "
                f"for that plane"
            )
        if self.injector is not None:
            return self.injector.scaled_latency(wire_class, base)
        return base

    def _enqueue(self, key: Tuple[str, WireClass], item: _Queued) -> None:
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues.setdefault(key, [])
            self._queue_heads[key] = 0
        queue.append(item)
        self._active.add(key)

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
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.plane_kills")
            tel.emit(cycle, EventKind.PLANE_KILL, {
                "channel": channel,
                "plane": plane.value,
            })
        if self.on_plane_kill is not None:
            self.on_plane_kill(channel, plane, cycle)

    def _dead_planes_on(
            self, channels: Tuple[str, ...]) -> FrozenSet[WireClass]:
        dead = self._dead
        return frozenset(
            plane for (channel, plane) in dead if channel in channels
        )

    def _blocked_by_kill(self, item: _Queued, plane: WireClass) -> bool:
        dead = self._dead
        for channel in item.path_channels:
            if (channel, plane) in dead:
                return True
        return False

    def _reroute(self, item: _Queued, cycle: int) -> None:
        """Move a stranded segment onto a surviving plane."""
        avoid = self._dead_planes_on(item.path_channels)
        if self.power is not None:
            avoid = self.power.route_avoid(item.path_channels, cycle,
                                           _NO_AVOID, avoid)
        wire_class = self._surviving_plane(item, avoid)
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.reroutes")
            tel.emit(cycle, EventKind.REROUTE, {
                "channel": item.path_channels[0],
                "from": item.segment.wire_class.value,
                "to": wire_class.value,
                "bits": item.segment.bits,
            })
        item.segment = replace(item.segment, wire_class=wire_class)
        item.latency = self._plane_latency(item.transfer, item.latencies,
                                           wire_class)
        item.earliest_cycle = cycle
        item.attempt = 0
        self.stats.degraded_reroutes += 1
        self.selector.record_injection(cycle, wire_class)
        if self.power is not None:
            self.power.note_activity(item.path_channels, wire_class, cycle)
        self._enqueue((item.path_channels[0], wire_class), item)

    def _surviving_plane(self, item: _Queued,
                         avoid: FrozenSet[WireClass]) -> WireClass:
        """A live plane wide enough for the segment, bulk planes first.

        The L plane is a last resort: it can only carry messages that
        fit its (narrow) width in one cycle.
        """
        bits = item.segment.bits
        for wire_class in (WireClass.B, WireClass.PW, WireClass.W,
                           WireClass.L):
            if (not self.composition.has_plane(wire_class)
                    or wire_class in avoid):
                continue
            if all(bits <= self._capacity((ch, wire_class))
                   for ch in item.path_channels):
                return wire_class
        dead = ", ".join(sorted(w.value for w in avoid)) or "none"
        raise UnroutableError(
            f"no surviving plane can carry {bits} bits on path "
            f"{'>'.join(item.path_channels)} (composition: "
            f"{self.composition.describe()}; dead planes: {dead})"
        )

    def _process_retries(self, cycle: int) -> None:
        """Requeue NACKed segments whose retransmission cycle arrived."""
        retries = self._retries
        stats = self.stats
        while retries and retries[0][0] <= cycle:
            _, _, item = heapq.heappop(retries)
            plane = item.segment.wire_class
            tel = self.telemetry
            if item.attempt >= self._retry_budget:
                # Persistent corruption: treat the source link's plane
                # as broken and fall back to the surviving planes.
                stats.retry_escalations += 1
                if tel.enabled:
                    tel.count("faults.retry_escalations")
                    tel.emit(cycle, EventKind.RETRY_ESCALATION, {
                        "channel": item.path_channels[0],
                        "plane": plane.value,
                        "attempts": item.attempt,
                    })
                self._kill(item.path_channels[0], plane, cycle)
                self._reroute(item, cycle)
                continue
            item.attempt += 1
            item.earliest_cycle = cycle
            stats.retransmissions += 1
            if tel.enabled:
                tel.count("faults.retransmissions")
                tel.emit(cycle, EventKind.NACK_RETRY, {
                    "channel": item.path_channels[0],
                    "plane": plane.value,
                    "attempt": item.attempt,
                })
            key = (item.path_channels[0], plane)
            self._channel_retx[key] = self._channel_retx.get(key, 0) + 1
            self._enqueue(key, item)

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        """Arbitrate all queued segments for this cycle's wire budgets."""
        if not self._batched:
            self._tick_keyed(cycle)
            return
        active = self._active_chans
        if not active:
            return
        stats = self.stats
        deliveries = self._deliveries
        tally = stats._tally
        granted_any = False
        drained = None
        order = (sorted(active, key=_chan_order)
                 if len(active) > 1 else tuple(active))
        for chan in order:
            queue = chan.queue
            head = chan.head
            length = len(queue)
            plane = chan.key[1]
            if chan.budget_cycle != cycle:
                chan.budget = 0
                chan.budget_cycle = cycle
            budget = chan.budget
            capacity = chan.capacity
            while head < length:
                item = queue[head]
                if item.earliest_cycle > cycle:
                    break
                bits = item.segment.bits
                peers = item.peers
                if peers is None:
                    if budget + bits > capacity:
                        break
                    budget += bits
                    chan.grants += 1
                    chan.bits += bits
                else:
                    chan.budget = budget
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
                    budget = chan.budget
                granted_any = True
                tkey = (plane, bits, item.energy_weight,
                        item.transfer.kind)
                tally[tkey] = tally.get(tkey, 0) + 1
                self._delivery_seq += 1
                heapq.heappush(
                    deliveries,
                    (cycle + item.latency, self._delivery_seq, item),
                )
                head += 1
            chan.budget = budget
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
                active.discard(chan)

    def _tick_keyed(self, cycle: int) -> None:
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._retries:
            self._process_retries(cycle)
        if not self._active:
            return
        if self._budget_cycle != cycle:
            self._budget.clear()
            self._budget_cycle = cycle
        budget = self._budget
        faulty = bool(self._dead)
        drained = []
        for key in sorted(self._active, key=_queue_order):
            queue = self._queues[key]
            head = self._queue_heads[key]
            plane = key[1]
            while head < len(queue):
                item = queue[head]
                if item.earliest_cycle > cycle:
                    break
                if faulty and self._blocked_by_kill(item, plane):
                    # The plane died under this segment: hand it to a
                    # surviving plane instead of stalling forever.
                    head += 1
                    self._reroute(item, cycle)
                    continue
                if not self._grant(item, plane, cycle, budget):
                    break
                head += 1
            self.stats.buffered_cycles += len(queue) - head
            if head >= len(queue):
                queue.clear()
                head = 0
                drained.append(key)
            elif head > 64:
                del queue[:head]
                head = 0
            self._queue_heads[key] = head
        for key in drained:
            self._active.discard(key)

    def _grant(self, item: _Queued, plane: WireClass, cycle: int,
               budget: Dict[Tuple[str, WireClass], int]) -> bool:
        bits = item.segment.bits
        keys = [(ch, plane) for ch in item.path_channels]
        for bkey in keys:
            capacity = self._capacity(bkey)
            if budget.get(bkey, 0) + bits > capacity:
                return False
        for bkey in keys:
            budget[bkey] = budget.get(bkey, 0) + bits
            self._channel_grants[bkey] = self._channel_grants.get(
                bkey, 0) + 1
            self._channel_bits[bkey] = self._channel_bits.get(
                bkey, 0) + bits
        if self._first_grant_cycle is None:
            self._first_grant_cycle = cycle
        self._last_grant_cycle = cycle
        self.stats.record_segment(
            plane, bits, item.energy_weight, item.transfer.kind
        )
        tel = self.telemetry
        if tel.enabled:
            tel.observe("network.segment_bits", bits,
                        self.SEGMENT_BITS_BUCKETS)
            tel.observe("network.grant_wait_cycles",
                        max(0, cycle - item.earliest_cycle),
                        self.GRANT_WAIT_BUCKETS)
        if self._ber_active and self.injector.corrupts(
                plane, item.transfer.kind.value, item.transfer.seq,
                bits, len(item.path_channels), item.attempt,
                item.segment.is_leading_slice):
            # The segment burned wires and energy but arrives corrupt:
            # the receiver NACKs and the source retransmits after a
            # round trip.  No arrival callbacks fire for this attempt.
            self.stats.corrupted_segments += 1
            if tel.enabled:
                tel.count("faults.corrupted_segments")
                tel.emit(cycle, EventKind.CORRUPTION, {
                    "kind": item.transfer.kind.value,
                    "plane": plane.value,
                    "seq": item.transfer.seq,
                    "attempt": item.attempt,
                })
            self._retry_seq += 1
            heapq.heappush(
                self._retries,
                (cycle + 2 * item.latency + 1, self._retry_seq, item),
            )
            return True
        self._delivery_seq += 1
        heapq.heappush(
            self._deliveries,
            (cycle + item.latency, self._delivery_seq, item),
        )
        return True

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
        capacity = self._capacity_cache.get(key)
        if capacity is None:
            channel, plane = key
            width = self.composition.plane(plane).width
            factor = self.topology.channel_width_factor(channel)
            capacity = width * factor
            self._capacity_cache[key] = capacity
        return capacity

    def idle(self) -> bool:
        """True when nothing is queued, in flight or awaiting retry."""
        return (not self._active and not self._active_chans
                and not self._deliveries and not self._retries)

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
        self._fold_channels()
        reports = []
        # Sorted so equal-utilization rows tie-break by (channel,
        # plane) instead of by whatever order traffic first touched
        # them -- the report must survive refactors of the grant path.
        for key, bits in sorted(self._channel_bits.items(),
                                key=lambda kv: _queue_order(kv[0])):
            channel, plane = key
            capacity = self._capacity(key)
            reports.append(ChannelReport(
                channel=channel,
                wire_class=plane,
                capacity_bits=capacity,
                grants=self._channel_grants[key],
                bits=bits,
                utilization=bits / (capacity * cycles),
                retransmissions=self._channel_retx.get(key, 0),
            ))
        reports.sort(key=lambda r: -r.utilization)
        return reports

    def _fold_channels(self) -> None:
        """Fold batched-path grant/bit counters into the keyed dicts."""
        grants = self._channel_grants
        bits = self._channel_bits
        for chan in self._chans.values():
            if chan.grants:
                key = chan.key
                grants[key] = grants.get(key, 0) + chan.grants
                bits[key] = bits.get(key, 0) + chan.bits
                chan.grants = 0
                chan.bits = 0

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


def _queue_order(key: Tuple[str, WireClass]) -> Tuple[str, str]:
    channel, plane = key
    return (channel, plane.value)
