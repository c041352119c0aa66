"""The plane power-state manager: leakage control for idle wire planes.

Every (link, plane) pair of the network owns a four-state machine::

    ACTIVE --idle--> DROWSY --idle--> GATED
      ^                 |               |
      |               demand          demand
      +--- WAKING <-----+---------------+

* **ACTIVE** planes leak at their full Table 2 rate and route traffic.
* **DROWSY** planes hold state at a reduced bitline voltage
  (:data:`DROWSY_LEAKAGE_FRACTION` of full leakage) and need a short
  wake-up before carrying new traffic.
* **GATED** planes are power-gated (:data:`GATED_LEAKAGE_FRACTION`)
  and pay the long wake-up.
* **WAKING** planes are re-ramping: they leak at the full rate but are
  still unavailable until their wake completes.

The machine is settled *lazily*: nothing runs per cycle.  Every state
is a closed-form function of the plane's injection history (the policy
contract, :mod:`repro.power.policy`), so the manager walks a plane
forward only when something asks about it -- a submit arbitrating a
path, a measurement-window boundary, the end-of-run leakage
integration.  Lazy settlement is what lets the processor keep its
idle-cycle skipping: a skipped cycle cannot miss a transition because
transitions are reconstructed, not observed.

Integration contract (see DESIGN §15):

* The network presents every non-ACTIVE plane on a transfer's path to
  the :class:`~repro.interconnect.selection.WireSelector` as an avoided
  plane -- the same machinery fault-killed planes use -- so no transfer
  is ever routed over a drowsy, waking or gated plane.
* A demand for a sleeping plane starts its wake and charges the wake
  energy exactly once; the transfer itself proceeds on an ACTIVE plane.
* Segments already queued on a plane when it steps down still drain
  (injection-driven gating controls new traffic only); their residual
  leakage is absorbed into the plane's settled state.
* If faults and gating together would strand a path without a
  bulk-capable plane, the manager force-wakes one immediately (the
  wake is still charged) rather than deadlocking -- mirroring the
  fault layer's reroute-before-stall stance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry
from ..wires import WireClass
from .policy import GatingPolicy

#: Leakage of a DROWSY plane relative to ACTIVE (drowsy caches retain
#: state at ~0.3x leakage; wires keep their repeaters biased).
DROWSY_LEAKAGE_FRACTION = 0.3
#: Leakage of a power-GATED plane relative to ACTIVE (sleep-transistor
#: off-state leakage does not reach zero).
GATED_LEAKAGE_FRACTION = 0.02

#: Relative energy charged per wire when a plane re-ramps, by the state
#: it wakes from.  Same normalization as Table 2's dynamic energies.
DROWSY_WAKE_ENERGY_PER_WIRE = 0.05
GATED_WAKE_ENERGY_PER_WIRE = 0.2

_BULK_ORDER = (WireClass.B, WireClass.PW, WireClass.W)


class PowerState(enum.Enum):
    """Power state of one wire plane on one link."""

    ACTIVE = "active"
    WAKING = "waking"
    DROWSY = "drowsy"
    GATED = "gated"


class _PlaneSlot:
    """Mutable per-(link, plane) machine state and window counters."""

    __slots__ = (
        "link", "plane", "wires", "leak_rate", "gateable",
        "state", "last_use", "ewma", "transitions", "settled", "wake_ready",
        "hold_until",
        "active_cycles", "waking_cycles", "drowsy_cycles", "gated_cycles",
        "drowsy_entries", "gate_entries", "drowsy_wakes", "gated_wakes",
    )

    def __init__(self, link: str, plane: WireClass, wires: int,
                 leak_rate: float, gateable: bool) -> None:
        self.link = link
        self.plane = plane
        self.wires = wires
        self.leak_rate = leak_rate
        self.gateable = gateable
        self.state = PowerState.ACTIVE
        self.last_use = 0
        self.ewma = 0.0
        #: ``policy.transitions_after(last_use, ewma)``, or ``None`` when
        #: a touch moved either input since it was computed.
        self.transitions: Optional[Tuple[Optional[int], Optional[int]]] \
            = None
        self.settled = 0
        self.wake_ready = 0
        self.hold_until = 0
        self.active_cycles = 0
        self.waking_cycles = 0
        self.drowsy_cycles = 0
        self.gated_cycles = 0
        self.drowsy_entries = 0
        self.gate_entries = 0
        self.drowsy_wakes = 0
        self.gated_wakes = 0


@dataclass(frozen=True)
class PlanePowerReport:
    """One plane's power-state summary over the measured window."""

    link: str
    wire_class: WireClass
    wires: int
    state: PowerState
    active_cycles: int
    waking_cycles: int
    drowsy_cycles: int
    gated_cycles: int
    wakes: int
    gate_entries: int


class PlanePowerManager:
    """Per-(link, plane) power-state machines under one gating policy.

    Keys every plane of every physical link (both directions of a link
    share a machine, like the leakage inventory shares a count).  The
    default bulk plane (:meth:`LinkComposition.bulk_plane`) is pinned
    ACTIVE -- gating the plane that carries unclaimed traffic would
    turn every quiet phase into a wake storm -- so only the specialist
    planes (L, PW or B/W when another bulk plane exists) participate.
    """

    def __init__(self, topology, composition,
                 policy: GatingPolicy,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.topology = topology
        self.composition = composition
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.window_start = 0
        links = dict(topology.link_inventory())
        self._link_of: Dict[str, str] = {
            channel: _channel_link(channel, links)
            for channel in topology.channels
        }
        specs = composition.specs_map()
        wires = composition.total_wires(False)
        bulk = composition.bulk_plane()
        self._slots: List[_PlaneSlot] = []
        self._by_link: Dict[str, List[_PlaneSlot]] = {}
        for link, factor in topology.link_inventory():
            per_link = []
            for plane in WireClass:
                if not composition.has_plane(plane):
                    continue
                slot = _PlaneSlot(
                    link=link, plane=plane,
                    wires=wires[plane] * factor,
                    leak_rate=specs[plane].relative_leakage,
                    gateable=plane is not bulk,
                )
                per_link.append(slot)
                self._slots.append(slot)
            self._by_link[link] = per_link
        self._path_slots: Dict[Tuple[str, ...], List[_PlaneSlot]] = {}
        self._bulk_capable = tuple(wc for wc in _BULK_ORDER
                                   if composition.has_plane(wc))

    # -- routing-side interface ------------------------------------------

    def route_avoid(self, channels: Tuple[str, ...], cycle: int,
                    demanded: FrozenSet[WireClass],
                    dead: FrozenSet[WireClass]) -> FrozenSet[WireClass]:
        """Planes a transfer on ``channels`` must avoid at ``cycle``.

        Settles every gateable plane on the path, starts wake-ups for
        demanded sleeping planes, and returns ``dead`` merged with every
        plane that is not ACTIVE (``dead`` itself when all are).  If the
        merged set would leave the path without a live bulk-capable
        plane, one is force-woken so the transfer stays routable (the
        wake is charged as usual).
        """
        slots = self._slots_on(channels)
        asleep = False
        for slot in slots:
            if slot.settled < cycle:
                self._settle(slot, cycle)
            if slot.state is not PowerState.ACTIVE:
                asleep = True
        if not asleep:
            return dead
        if demanded:
            for slot in slots:
                if (slot.plane in demanded and slot.state in
                        (PowerState.DROWSY, PowerState.GATED)):
                    self._wake(slot, cycle)
        avoid = dead.union([slot.plane for slot in slots
                            if slot.state is not PowerState.ACTIVE])
        for wc in self._bulk_capable:
            if wc not in avoid:
                return avoid
        # Faults killed the planes gating left alone: restore service.
        for wc in self._bulk_capable:
            if wc not in dead:
                for slot in slots:
                    if slot.plane is wc:
                        self._force_wake(slot, cycle)
                break
        return dead.union([slot.plane for slot in slots
                           if slot.state is not PowerState.ACTIVE])

    def note_activity(self, channels: Tuple[str, ...], plane: WireClass,
                      cycle: int) -> None:
        """Record an injection on ``plane`` along ``channels``."""
        touch = self.policy.touch
        for slot in self._slots_on(channels):
            if slot.plane is not plane:
                continue
            if slot.settled < cycle:
                self._settle(slot, cycle)
            if slot.state is PowerState.ACTIVE:
                slot.ewma = touch(slot.ewma, cycle - slot.last_use)
                slot.last_use = cycle
                slot.transitions = None

    # -- lazy state machine ----------------------------------------------

    def _settle(self, slot: _PlaneSlot, to: int,
                emit: bool = True) -> None:
        """Advance one plane's machine to ``to``, attributing cycles."""
        pos = slot.settled
        if to <= pos:
            return
        policy = self.policy
        state = slot.state
        while pos < to:
            if state is PowerState.ACTIVE:
                if not slot.gateable:
                    slot.active_cycles += to - pos
                    pos = to
                    break
                transitions = slot.transitions
                if transitions is None:
                    transitions = slot.transitions = \
                        policy.transitions_after(slot.last_use, slot.ewma)
                drowsy_at, gate_at = transitions
                if drowsy_at is None:
                    slot.active_cycles += to - pos
                    pos = to
                    break
                down = max(drowsy_at, slot.hold_until)
                if down > to:
                    slot.active_cycles += to - pos
                    pos = to
                    break
                slot.active_cycles += down - pos
                pos = down
                gate_down = None if gate_at is None \
                    else max(gate_at, slot.hold_until)
                if gate_down is not None and gate_down <= down:
                    state = PowerState.GATED
                    slot.gate_entries += 1
                else:
                    state = PowerState.DROWSY
                    slot.drowsy_entries += 1
                self._transition(slot, state, pos, to, emit)
            elif state is PowerState.DROWSY:
                transitions = slot.transitions
                if transitions is None:
                    transitions = slot.transitions = \
                        policy.transitions_after(slot.last_use, slot.ewma)
                gate_at = transitions[1]
                if gate_at is None:
                    slot.drowsy_cycles += to - pos
                    pos = to
                    break
                down = max(gate_at, slot.hold_until)
                if down > to:
                    slot.drowsy_cycles += to - pos
                    pos = to
                    break
                slot.drowsy_cycles += down - pos
                pos = down
                state = PowerState.GATED
                slot.gate_entries += 1
                self._transition(slot, state, pos, to, emit)
            elif state is PowerState.GATED:
                slot.gated_cycles += to - pos
                pos = to
            else:  # WAKING
                ready = slot.wake_ready
                if ready > to:
                    slot.waking_cycles += to - pos
                    pos = to
                    break
                slot.waking_cycles += ready - pos
                pos = ready
                state = PowerState.ACTIVE
                slot.ewma = policy.touch(slot.ewma, pos - slot.last_use)
                slot.last_use = pos
                slot.transitions = None
        slot.state = state
        slot.settled = to

    def _transition(self, slot: _PlaneSlot, state: PowerState,
                    effective: int, stamp: int, emit: bool) -> None:
        tel = self.telemetry
        if emit and tel.enabled:
            tel.count("power.plane_gated")
            # Transitions are discovered lazily: the event is stamped
            # at the discovery cycle (stamps must be monotonic) and
            # carries the effective cycle in its attributes.
            tel.emit(stamp, EventKind.PLANE_GATED, {
                "link": slot.link,
                "plane": slot.plane._value_,
                "state": state._value_,
                "cycle": effective,
            })

    def _wake(self, slot: _PlaneSlot, cycle: int) -> None:
        from_gated = slot.state is PowerState.GATED
        latency = self.policy.wake_latency(from_gated)
        slot.state = PowerState.WAKING
        slot.wake_ready = cycle + latency
        slot.hold_until = slot.wake_ready + self.policy.hold_cycles
        if from_gated:
            slot.gated_wakes += 1
        else:
            slot.drowsy_wakes += 1
        self._emit_wake(slot, cycle, from_gated, forced=False)

    def _force_wake(self, slot: _PlaneSlot, cycle: int) -> None:
        """Immediately reactivate a plane to keep a path routable."""
        state = slot.state
        if state is PowerState.ACTIVE:
            return
        if state is not PowerState.WAKING:
            if state is PowerState.GATED:
                slot.gated_wakes += 1
            else:
                slot.drowsy_wakes += 1
            self._emit_wake(slot, cycle, state is PowerState.GATED,
                            forced=True)
        slot.state = PowerState.ACTIVE
        slot.ewma = self.policy.touch(slot.ewma, cycle - slot.last_use)
        slot.last_use = cycle
        slot.transitions = None
        slot.hold_until = cycle + self.policy.hold_cycles

    def _emit_wake(self, slot: _PlaneSlot, cycle: int, from_gated: bool,
                   forced: bool) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.count("power.plane_woken")
            tel.emit(cycle, EventKind.PLANE_WOKEN, {
                "link": slot.link,
                "plane": slot.plane._value_,
                "from": "gated" if from_gated else "drowsy",
                "ready": slot.wake_ready if not forced else cycle,
                "forced": forced,
            })

    def _slots_on(self, channels: Tuple[str, ...]) -> List[_PlaneSlot]:
        """The gateable slots of every link on a path, memoized.

        The pinned bulk plane never leaves ACTIVE, so routing has
        nothing to ask it; the window and accounting settles still walk
        its residency forward (they cover every slot).
        """
        slots = self._path_slots.get(channels)
        if slots is None:
            seen = []
            for channel in channels:
                link = self._link_of[channel]
                if link not in seen:
                    seen.append(link)
            slots = []
            for link in seen:
                slots.extend(slot for slot in self._by_link[link]
                             if slot.gateable)
            self._path_slots[channels] = slots
        return slots

    # -- accounting interface --------------------------------------------

    def begin_window(self, cycle: int) -> None:
        """Start the measured window: settle, then zero the counters."""
        for slot in self._slots:
            self._settle(slot, max(cycle, slot.settled), emit=False)
            slot.active_cycles = 0
            slot.waking_cycles = 0
            slot.drowsy_cycles = 0
            slot.gated_cycles = 0
            slot.drowsy_entries = 0
            slot.gate_entries = 0
            slot.drowsy_wakes = 0
            slot.gated_wakes = 0
        self.window_start = cycle

    def _settle_window(self, cycles: int) -> None:
        target = self.window_start + cycles
        for slot in self._slots:
            self._settle(slot, max(target, slot.settled), emit=False)

    def leakage_energy(self, cycles: int) -> float:
        """State-weighted leakage plus wake energy over the window.

        Same normalization as the always-on
        :func:`repro.interconnect.stats.leakage_energy`; with every
        plane ACTIVE for the whole window the two are equal.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._settle_window(cycles)
        total = 0.0
        for slot in self._slots:
            weighted = (slot.active_cycles + slot.waking_cycles
                        + DROWSY_LEAKAGE_FRACTION * slot.drowsy_cycles
                        + GATED_LEAKAGE_FRACTION * slot.gated_cycles)
            total += slot.wires * slot.leak_rate * weighted
        return total + self.wake_energy()

    def wake_energy(self) -> float:
        """Total reactivation energy charged this window."""
        total = 0.0
        for slot in self._slots:
            if slot.drowsy_wakes:
                total += (slot.drowsy_wakes * slot.wires
                          * DROWSY_WAKE_ENERGY_PER_WIRE)
            if slot.gated_wakes:
                total += (slot.gated_wakes * slot.wires
                          * GATED_WAKE_ENERGY_PER_WIRE)
        return total

    def total_wakes(self) -> int:
        return sum(s.drowsy_wakes + s.gated_wakes for s in self._slots)

    def total_gate_entries(self) -> int:
        return sum(s.gate_entries for s in self._slots)

    def gated_share(self, cycles: int) -> float:
        """Fraction of wire-cycles spent gated or drowsy this window."""
        if cycles <= 0:
            return 0.0
        self._settle_window(cycles)
        sleeping = sum(
            s.wires * (s.drowsy_cycles + s.gated_cycles)
            for s in self._slots
        )
        capacity = sum(s.wires for s in self._slots) * cycles
        if capacity <= 0:
            return 0.0
        return sleeping / capacity

    def power_report(self, cycles: Optional[int] = None
                     ) -> List[PlanePowerReport]:
        """Per-plane power-state summaries, most-gated first."""
        if cycles is not None:
            self._settle_window(cycles)
        return sorted(
            (
                PlanePowerReport(
                    link=s.link,
                    wire_class=s.plane,
                    wires=s.wires,
                    state=s.state,
                    active_cycles=s.active_cycles,
                    waking_cycles=s.waking_cycles,
                    drowsy_cycles=s.drowsy_cycles,
                    gated_cycles=s.gated_cycles,
                    wakes=s.drowsy_wakes + s.gated_wakes,
                    gate_entries=s.gate_entries,
                )
                for s in self._slots
            ),
            key=lambda r: (-r.gated_cycles, -r.drowsy_cycles,
                           r.link, r.wire_class.value),
        )


def _channel_link(channel: str, links: Mapping[str, int]) -> str:
    """Map a directed channel name onto its physical link name."""
    base, sep, _ = channel.rpartition(":")
    if sep and not channel.startswith("ring:"):
        return base  # "c0:out" / "cache:in" -> "c0" / "cache"
    if channel.startswith("ring:"):
        a, sep, b = channel[len("ring:"):].partition(">")
        if sep:
            forward = f"ring:{a}-{b}"
            if forward in links:
                return forward
            return f"ring:{b}-{a}"
    raise ValueError(f"channel {channel!r} matches no physical link")

