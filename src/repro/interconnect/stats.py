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


@dataclass
class PlaneActivity:
    """Traffic observed on one wire class."""

    transfers: int = 0
    bits: int = 0
    weighted_bits: int = 0


@dataclass(eq=False)
class InterconnectStats:
    """Everything the energy model and the paper's traffic claims need.

    Grants are tallied per distinct ``(plane, bits, weight)`` shape and
    folded into :attr:`by_plane` on first read.  All counters are
    integers and the fold keeps first-grant order, so the float
    summation order of :meth:`dynamic_energy` is that of per-grant
    recording.
    """

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
    #: (wire_class, bits, energy_weight) -> grants not yet folded, in
    #: first-grant order (dict insertion order).
    _tally: Dict[Tuple[WireClass, int, int], int] = field(
        default_factory=dict, init=False, repr=False)

    @property
    def by_plane(self) -> Dict[WireClass, PlaneActivity]:
        self.flush()
        return self._planes

    def record_segment(self, wire_class: WireClass, bits: int,
                       energy_weight: int) -> None:
        if bits < 0:
            raise ValueError(
                f"cannot record a segment of {bits} bits on "
                f"{wire_class.value}-Wires; bit counts are non-negative"
            )
        key = (wire_class, bits, energy_weight)
        tally = self._tally
        tally[key] = tally.get(key, 0) + 1

    def flush(self) -> "InterconnectStats":
        """Fold pending grant tallies into the plane counters."""
        tally = self._tally
        if not tally:
            return self
        self._tally = {}
        planes = self._planes
        for (wire_class, bits, weight), count in tally.items():
            activity = planes.get(wire_class)
            if activity is None:
                activity = planes.setdefault(wire_class, PlaneActivity())
            activity.transfers += count
            activity.bits += count * bits
            activity.weighted_bits += count * bits * weight
        return self

    def reset(self) -> None:
        """Zero every counter, pending tallies included; keep ``specs``."""
        self.__init__(specs=self.specs)

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
