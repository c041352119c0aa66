"""The ten interconnect models of the paper's Tables 3 and 4.

Each model fixes the composition of every link (wire counts are
bidirectional totals, exactly as the tables quote them):

=========  ==============================  ===========
Model      Link composition                Metal area
=========  ==============================  ===========
I          144 B                           1.0
II         288 PW                          1.0
III        144 PW + 36 L                   1.5
IV         288 B                           2.0
V          144 B + 288 PW                  2.0
VI         288 PW + 36 L                   2.0
VII        144 B + 36 L                    2.0
VIII       432 B                           3.0
IX         288 B + 36 L                    3.0
X          144 B + 288 PW + 36 L           3.0
=========  ==============================  ===========

The metal-area column is *derived* from the per-wire area factors of
Table 2 (B = 2x, L = 8x a minimum-pitch track) and reproduces the
paper's numbers exactly -- see ``tests/core/test_models.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..wires import SUPPORTED_NODES, WireClass, scale_catalog
from .config import InterconnectConfig

#: Roman numerals in table order.
MODEL_NAMES: Tuple[str, ...] = (
    "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X",
)

#: Model names beginning with this prefix are *design points*: ad-hoc
#: node-scaled compositions minted by the explorer rather than rows of
#: the paper's tables.  See :func:`parse_design_point` for the grammar.
DESIGN_POINT_PREFIX = "dp@"

#: Canonical class order inside a design-point name (and everywhere a
#: mix is serialized): wire classes from cheapest to most specialized.
DESIGN_POINT_CLASS_ORDER: Tuple[WireClass, ...] = (
    WireClass.W, WireClass.PW, WireClass.B, WireClass.L,
)

_MODEL_WIRES: Dict[str, Dict[WireClass, int]] = {
    "I": {WireClass.B: 144},
    "II": {WireClass.PW: 288},
    "III": {WireClass.PW: 144, WireClass.L: 36},
    "IV": {WireClass.B: 288},
    "V": {WireClass.B: 144, WireClass.PW: 288},
    "VI": {WireClass.PW: 288, WireClass.L: 36},
    "VII": {WireClass.B: 144, WireClass.L: 36},
    "VIII": {WireClass.B: 432},
    "IX": {WireClass.B: 288, WireClass.L: 36},
    "X": {WireClass.B: 144, WireClass.PW: 288, WireClass.L: 36},
}

#: The paper's "Relative Metal Area" column, for cross-checking.
PAPER_METAL_AREA: Dict[str, float] = {
    "I": 1.0, "II": 1.0, "III": 1.5, "IV": 2.0, "V": 2.0,
    "VI": 2.0, "VII": 2.0, "VIII": 3.0, "IX": 3.0, "X": 3.0,
}


@dataclass(frozen=True)
class InterconnectModel:
    """One row of Table 3/4: a named link composition."""

    name: str
    config: InterconnectConfig

    @property
    def description(self) -> str:
        return self.config.describe()

    def relative_metal_area(self) -> float:
        """Metal area relative to Model I, derived from Table 2's
        per-wire area factors."""
        own = self.config.build_composition().relative_metal_area()
        base = model("I").config.build_composition().relative_metal_area()
        return own / base


def is_design_point(name: str) -> bool:
    """Is ``name`` a design-point model name (vs a Roman numeral)?"""
    return name.startswith(DESIGN_POINT_PREFIX)


def format_design_point(node: int,
                        wires: Mapping[WireClass, int],
                        cache_width_factor: int = 2) -> str:
    """Canonical design-point model name, e.g. ``dp@n32:B144+L36:cw2``.

    Classes appear in :data:`DESIGN_POINT_CLASS_ORDER`; counts are
    bidirectional totals exactly as the paper's tables quote them.  The
    encoding is injective, so equal names mean equal configurations --
    which is what makes it safe inside ``ExperimentPlan.cache_key()``.
    Only buildable links get a name: every count is positive and even
    and the cache width factor is at least 1, as
    :class:`~repro.interconnect.plane.LinkComposition` demands.
    """
    if not wires:
        raise ValueError("a design point needs at least one wire plane")
    unknown = set(wires) - set(DESIGN_POINT_CLASS_ORDER)
    if unknown:
        raise ValueError(f"unknown wire classes in design point: {unknown}")
    for wc in DESIGN_POINT_CLASS_ORDER:
        if wc in wires and (wires[wc] <= 0 or wires[wc] % 2):
            raise ValueError(
                f"{wc.value} wire count {wires[wc]} must be positive "
                f"and even (bidirectional total)"
            )
    if cache_width_factor < 1:
        raise ValueError(
            f"cache width factor {cache_width_factor} must be >= 1")
    mix = "+".join(
        f"{wc.value}{wires[wc]}"
        for wc in DESIGN_POINT_CLASS_ORDER if wc in wires
    )
    return (f"{DESIGN_POINT_PREFIX}n{int(node)}:{mix}"
            f":cw{int(cache_width_factor)}")


def parse_design_point(name: str
                       ) -> Tuple[int, Dict[WireClass, int], int]:
    """Parse ``dp@n<node>:<CLASS><count>+...:cw<k>``.

    Returns ``(node, wires, cache_width_factor)``.  Only the canonical
    spelling produced by :func:`format_design_point` is accepted
    (classes in canonical order, no repeats), so every configuration has
    exactly one name and therefore one cache key.
    """
    if not is_design_point(name):
        raise ValueError(f"not a design-point model name: {name!r}")
    body = name[len(DESIGN_POINT_PREFIX):]
    parts = body.split(":")
    if len(parts) != 3 or not parts[0].startswith("n") \
            or not parts[2].startswith("cw"):
        raise ValueError(
            f"malformed design point {name!r}; expected "
            f"'{DESIGN_POINT_PREFIX}n<node>:<CLASS><count>+...:cw<k>'"
        )
    try:
        node = int(parts[0][1:])
        cache_width_factor = int(parts[2][2:])
    except ValueError:
        raise ValueError(
            f"malformed design point {name!r}: node and cache width "
            f"factor must be integers"
        ) from None
    if node not in SUPPORTED_NODES:
        raise ValueError(
            f"design point {name!r} names an unsupported technology "
            f"node {node} nm; supported nodes: "
            f"{', '.join(str(n) for n in SUPPORTED_NODES)}"
        )
    wires: Dict[WireClass, int] = {}
    for term in parts[1].split("+"):
        for wc in (WireClass.PW, WireClass.B, WireClass.L, WireClass.W):
            if term.startswith(wc.value):
                suffix = term[len(wc.value):]
                break
        else:
            raise ValueError(
                f"malformed design point {name!r}: bad plane term "
                f"{term!r}"
            )
        if not suffix.isdigit():
            raise ValueError(
                f"malformed design point {name!r}: bad plane count in "
                f"{term!r}"
            )
        if wc in wires:
            raise ValueError(
                f"malformed design point {name!r}: wire class "
                f"{wc.value} repeated"
            )
        wires[wc] = int(suffix)
    canonical = format_design_point(node, wires, cache_width_factor)
    if canonical != name:
        raise ValueError(
            f"non-canonical design point {name!r}; canonical spelling "
            f"is {canonical!r}"
        )
    return node, wires, cache_width_factor


def model(name: str) -> InterconnectModel:
    """Look up a model: a Roman numeral ("I".."X") or a design point.

    Design-point names (``dp@...``) carry their own node-scaled wire
    catalog, so the returned configuration weighs energy by the node's
    electrical parameters rather than Table 2's 45 nm values.
    """
    if is_design_point(name):
        node, wires, cache_width_factor = parse_design_point(name)
        catalog = scale_catalog(node)
        return InterconnectModel(
            name=name,
            config=InterconnectConfig(
                wires=wires,
                cache_width_factor=cache_width_factor,
                wire_specs=catalog.specs,
            ),
        )
    try:
        wires = _MODEL_WIRES[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {MODEL_NAMES}"
        ) from None
    return InterconnectModel(
        name=name, config=InterconnectConfig(wires=dict(wires))
    )


def all_models() -> Tuple[InterconnectModel, ...]:
    """All ten models, in table order."""
    return tuple(model(name) for name in MODEL_NAMES)
