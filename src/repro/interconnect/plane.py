"""Wire planes: the physical composition of a heterogeneous link.

A link of the paper's Section 3 bundles several *planes*, one per wire
class -- e.g. "72 B-Wires, 144 PW-Wires and 18 L-Wires per direction".
Each plane contributes an independent per-cycle bit budget and its own
latency and energy characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..wires import CANONICAL_SPECS, WireClass, WireSpec
from .errors import ConfigError


@dataclass(frozen=True)
class PlaneSpec:
    """One wire plane of a link, as seen by the network.

    * ``wire_class`` -- W/PW/B/L.
    * ``width`` -- wires per direction = bits transferable per cycle.
    * ``spec`` -- electrical parameters (defaults to the paper's Table 2).
    """

    wire_class: WireClass
    width: int
    spec: WireSpec = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("plane width must be positive")
        if self.spec is None:
            object.__setattr__(self, "spec", CANONICAL_SPECS[self.wire_class])
        if self.spec.wire_class is not self.wire_class:
            raise ValueError("spec wire class must match plane wire class")


class LinkComposition:
    """The set of planes making up every link of a network.

    Constructed from *bidirectional totals* as the paper's tables quote
    them ("144 B-Wires" = 72 per direction).  The composition is one
    unit-width link; the topology scales the wider links (the cache and
    ring links) by their width factors.  ``specs`` overrides the
    electrical parameters per class (a node-scaled catalog); classes not
    in the mapping keep the canonical Table 2 values.
    """

    def __init__(self, wires_total: Mapping[WireClass, int],
                 specs: Mapping[WireClass, WireSpec] = None) -> None:
        if not wires_total:
            raise ValueError("a link needs at least one wire plane")
        specs = {} if specs is None else dict(specs)
        self._planes: Dict[WireClass, PlaneSpec] = {}
        for wire_class, total in wires_total.items():
            if total <= 0:
                raise ValueError(f"{wire_class} wire count must be positive")
            if total % 2:
                raise ValueError(
                    f"{wire_class} wire count {total} must be even "
                    "(bidirectional total)"
                )
            self._planes[wire_class] = PlaneSpec(
                wire_class=wire_class, width=total // 2,
                spec=specs.get(wire_class),
            )
        self._specs = specs

    def specs_map(self) -> Dict[WireClass, WireSpec]:
        """Effective per-class electrical parameters of this link.

        Canonical Table 2 for every class, overlaid with any node-scaled
        overrides this composition was built with -- the mapping energy
        accounting should weigh transfers by.
        """
        merged = dict(CANONICAL_SPECS)
        merged.update(self._specs)
        for wire_class, plane in self._planes.items():
            merged[wire_class] = plane.spec
        return merged

    def has_plane(self, wire_class: WireClass) -> bool:
        return wire_class in self._planes

    def plane(self, wire_class: WireClass) -> PlaneSpec:
        try:
            return self._planes[wire_class]
        except KeyError:
            raise ConfigError(
                f"link has no {wire_class.value}-Wires plane "
                f"(composition: {self.describe()})"
            ) from None

    def bulk_plane(self) -> WireClass:
        """The plane regular (full-width) traffic defaults to.

        B-Wires when present, else PW-Wires, else W-Wires.  A link made
        only of L-Wires cannot carry full-width traffic.
        """
        for wc in (WireClass.B, WireClass.PW, WireClass.W):
            if wc in self._planes:
                return wc
        raise ValueError(
            "link has no bulk-capable plane (only L-Wires present)"
        )

    def total_wires(self) -> Dict[WireClass, int]:
        """Physical wire count per class on one unit-width link (both
        directions)."""
        return {wc: 2 * p.width for wc, p in self._planes.items()}

    def relative_metal_area(self) -> float:
        """Metal area of one cluster link relative to one W-Wire track."""
        return sum(
            2 * p.width * p.spec.area_factor for p in self._planes.values()
        )

    def describe(self) -> str:
        """Human-readable composition, table style ("144 B-Wires, ...")."""
        order = (WireClass.B, WireClass.PW, WireClass.L, WireClass.W)
        parts = [
            f"{2 * self._planes[wc].width} {wc.value}-Wires"
            for wc in order if wc in self._planes
        ]
        return ", ".join(parts)
