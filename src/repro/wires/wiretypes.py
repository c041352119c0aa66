"""Wire classes and specifications.

The paper defines four flavours of global wire (Section 3):

* **W-Wires** -- bandwidth-optimal: minimum width and spacing, delay-optimal
  repeaters.  The reference point for relative delay/energy.
* **PW-Wires** -- power-and-bandwidth-optimal: minimum width/spacing with
  small, sparse repeaters; 1.2x the delay at ~30% of the energy.
* **B-Wires** -- the baseline: twice the metal area of a W-Wire (extra
  spacing), delay lower by 1.5x relative to PW-Wires (0.8 relative delay).
* **L-Wires** -- latency-optimal: 8x the width and spacing of W-Wires
  (or transmission lines), 0.3 relative delay, very low bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class WireClass(enum.Enum):
    """The four wire implementations of the paper's Section 3."""

    W = "W"
    PW = "PW"
    B = "B"
    L = "L"

    #: Identity hashing in C; equality is identity too (``Enum.__eq__``
    #: is ``object.__eq__``), so lookups are unchanged.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value}-Wires"


# A dense per-class index as a plain attribute: the network's hot paths
# index lists with it, which is cheaper than even the C-level hash and
# dict probe of an enum-keyed lookup.
for _index, _wc in enumerate(WireClass):
    _wc._index = _index
del _index, _wc


@dataclass(frozen=True)
class WireSpec:
    """Electrical summary of one wire class, as consumed by the simulator.

    * ``wire_class`` -- which flavour this is.
    * ``relative_delay`` -- delay per unit length relative to a W-Wire.
    * ``relative_dynamic_energy`` -- per-bit dynamic energy relative to a
      W-Wire transfer of the same distance.
    * ``relative_leakage`` -- per-wire leakage power relative to a W-Wire.
    * ``area_factor`` -- metal tracks consumed relative to a W-Wire; the
      number of wires that fit in a fixed metal budget scales as
      ``1 / area_factor``.
    """

    wire_class: WireClass
    relative_delay: float
    relative_dynamic_energy: float
    relative_leakage: float
    area_factor: float

    def __post_init__(self) -> None:
        for name in ("relative_delay", "relative_dynamic_energy",
                     "relative_leakage", "area_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def wires_per_budget(self, w_wire_tracks: int) -> int:
        """Wires of this class that fit where ``w_wire_tracks`` W-Wires fit."""
        if w_wire_tracks < 0:
            raise ValueError("track budget must be non-negative")
        return int(w_wire_tracks / self.area_factor)
