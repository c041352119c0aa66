"""Interconnect activity counters and energy accounting.

Dynamic energy is proportional to bits moved, weighted by the per-bit
relative dynamic energy of the plane (Table 2) and the number of
link-lengths spanned.  Leakage is proportional to the physical wires
present times the cycles simulated, weighted by per-wire relative leakage.
All energies are in "relative units" normalized exactly as the paper's
Tables 3 and 4 are -- see :mod:`repro.core.metrics` for the final
normalization against Model I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..wires import CANONICAL_SPECS, WireClass, WireSpec
from .message import TransferKind


@dataclass
class PlaneActivity:
    """Traffic observed on one wire class."""

    transfers: int = 0
    bits: int = 0
    weighted_bits: int = 0


@dataclass(eq=False)
class InterconnectStats:
    """Everything the energy model and the paper's traffic claims need.

    Grants are tallied per distinct ``(plane, bits, weight, kind)``
    shape and folded into :attr:`by_plane` / :attr:`by_kind` on first
    read.  All counters are integers and the fold keeps first-grant
    order, so the float summation order of :meth:`dynamic_energy` is
    that of per-grant recording.
    """

    buffered_cycles: int = 0
    split_transfers: int = 0
    diverted_transfers: int = 0
    # Fault-injection / graceful-degradation counters (all zero on a
    # healthy network).  A corrupted segment still burns wires and
    # energy; its retransmission is a fresh grant recorded on top.
    corrupted_segments: int = 0
    retransmissions: int = 0
    retry_escalations: int = 0
    degraded_reroutes: int = 0
    # Per-class electrical parameters the energy model weighs traffic
    # with; None means the canonical Table 2 catalog.
    specs: Optional[Mapping[WireClass, WireSpec]] = field(
        default=None, repr=False
    )
    _planes: Dict[WireClass, PlaneActivity] = field(
        default_factory=dict, init=False, repr=False)
    _kinds: Dict[TransferKind, int] = field(
        default_factory=dict, init=False, repr=False)
    #: (wire_class, bits, energy_weight, kind) -> grants not yet folded,
    #: in first-grant order (dict insertion order).
    _tally: Dict[Tuple[WireClass, int, int, TransferKind], int] = field(
        default_factory=dict, init=False, repr=False)

    @property
    def by_plane(self) -> Dict[WireClass, PlaneActivity]:
        self.flush()
        return self._planes

    @property
    def by_kind(self) -> Dict[TransferKind, int]:
        self.flush()
        return self._kinds

    def record_segment(self, wire_class: WireClass, bits: int,
                       energy_weight: int, kind: TransferKind) -> None:
        if bits < 0:
            raise ValueError(
                f"cannot record a segment of {bits} bits on "
                f"{wire_class.value}-Wires; bit counts are non-negative"
            )
        key = (wire_class, bits, energy_weight, kind)
        tally = self._tally
        tally[key] = tally.get(key, 0) + 1

    def flush(self) -> "InterconnectStats":
        """Fold pending grant tallies into the plane/kind counters."""
        tally = self._tally
        if not tally:
            return self
        self._tally = {}
        planes = self._planes
        kinds = self._kinds
        for (wire_class, bits, weight, kind), count in tally.items():
            activity = planes.get(wire_class)
            if activity is None:
                activity = planes.setdefault(wire_class, PlaneActivity())
            activity.transfers += count
            activity.bits += count * bits
            activity.weighted_bits += count * bits * weight
            kinds[kind] = kinds.get(kind, 0) + count
        return self

    def reset(self) -> None:
        """Zero every counter, pending tallies included; keep ``specs``."""
        self.__init__(specs=self.specs)

    def merge(self, other: "InterconnectStats") -> "InterconnectStats":
        """Fold ``other``'s counters into this one; returns ``self``.

        All counters are integers, so merging is exact and associative.
        Planes and kinds unseen here are appended in ``other``'s
        insertion order, preserving the first-touch ordering that
        :meth:`dynamic_energy` sums in.
        """
        planes = self.by_plane
        for wire_class, activity in other.by_plane.items():
            mine = planes.get(wire_class)
            if mine is None:
                mine = planes.setdefault(wire_class, PlaneActivity())
            mine.transfers += activity.transfers
            mine.bits += activity.bits
            mine.weighted_bits += activity.weighted_bits
        kinds = self.by_kind
        for kind, count in other.by_kind.items():
            kinds[kind] = kinds.get(kind, 0) + count
        self.buffered_cycles += other.buffered_cycles
        self.split_transfers += other.split_transfers
        self.diverted_transfers += other.diverted_transfers
        self.corrupted_segments += other.corrupted_segments
        self.retransmissions += other.retransmissions
        self.retry_escalations += other.retry_escalations
        self.degraded_reroutes += other.degraded_reroutes
        return self

    def dynamic_energy(self) -> float:
        """Relative dynamic energy of all recorded traffic."""
        specs = self.specs if self.specs is not None else CANONICAL_SPECS
        total = 0.0
        for wire_class, activity in self.by_plane.items():
            spec = specs[wire_class]
            total += activity.weighted_bits * spec.relative_dynamic_energy
        return total

    def transfers_on(self, wire_class: WireClass) -> int:
        activity = self.by_plane.get(wire_class)
        return activity.transfers if activity else 0

    def total_transfers(self) -> int:
        return sum(a.transfers for a in self.by_plane.values())


def leakage_energy(wire_inventory: Mapping[WireClass, int],
                   cycles: int,
                   specs: Optional[Mapping[WireClass, WireSpec]] = None,
                   ) -> float:
    """Relative leakage energy of a network over ``cycles``.

    ``wire_inventory`` maps each wire class to the total number of
    physical wires in the network (all links, both directions).
    ``specs`` overrides the per-class electrical parameters (a
    node-scaled catalog); None means the canonical Table 2 values.
    """
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    if specs is None:
        specs = CANONICAL_SPECS
    total = 0.0
    for wire_class, count in wire_inventory.items():
        if count < 0:
            raise ValueError("wire counts must be non-negative")
        total += count * specs[wire_class].relative_leakage
    return total * cycles
