"""Design points: what one candidate architecture *is*.

A :class:`DesignPoint` pins everything the explorer varies -- the
technology node, the per-class wire counts of every link, the network
topology and the cache-link width factor.  Its :meth:`~DesignPoint.
encode` string is canonical and injective, and its plans embed the
node-scaled model name and latency factor, so two equal points always
share cache entries and two different points never do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

from ..core.models import (
    DESIGN_POINT_CLASS_ORDER,
    format_design_point,
    parse_design_point,
)
from ..harness.runner import ExperimentPlan
from ..power import GatingSpecError, canonical_gating
from ..wires import WireClass, node_scaling
from ..wires.scaling import _check_node

#: Topology choices and the cluster count each implies.  Up to four
#: clusters the simulator builds a crossbar; beyond that, the paper's
#: Figure 2 hierarchy (ring of crossbars).
TOPOLOGIES: Dict[str, int] = {"xbar4": 4, "ring16": 16}


def check_canonical_gating(gating: str) -> None:
    """Reject a malformed or non-canonical policy: one policy, one
    design-point identity."""
    try:
        canonical = canonical_gating(gating)
    except GatingSpecError as exc:
        raise ValueError(f"bad gating policy: {exc}") from None
    if canonical != gating:
        raise ValueError(
            f"gating policy {gating!r} is not canonical; "
            f"use {canonical!r}"
        )


@dataclass(frozen=True)
class DesignPoint:
    """One candidate architecture of the exploration space.

    ``wires`` holds ``(wire-class value, bidirectional total)`` pairs in
    the canonical class order -- a hashable stand-in for the mapping the
    rest of the library uses (:meth:`wire_mapping` converts back).
    """

    node: int
    wires: Tuple[Tuple[str, int], ...]
    topology: str = "xbar4"
    cache_width_factor: int = 2
    #: Canonical gating-policy string ("" = always-on planes); a sweep
    #: axis like the others, but reaching the cache key through
    #: ``ExperimentPlan.gating_policy`` rather than the model name.
    gating: str = ""

    def __post_init__(self) -> None:
        _check_node(self.node)
        check_canonical_gating(self.gating)
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from "
                f"{', '.join(sorted(TOPOLOGIES))}"
            )
        canonical = tuple(
            (wc.value, dict(self.wires)[wc.value])
            for wc in DESIGN_POINT_CLASS_ORDER
            if wc.value in dict(self.wires)
        )
        if (not self.wires or canonical != self.wires
                or len(dict(self.wires)) != len(self.wires)):
            raise ValueError(
                f"wire pairs {self.wires!r} must be unique and in "
                f"canonical class order; use DesignPoint.from_mix()"
            )
        # The name carries the link rules, so a point no run can
        # build fails here, not at simulation time.
        self.model_name()

    @classmethod
    def from_mix(cls, node: int, wires: Mapping[WireClass, int],
                 topology: str = "xbar4",
                 cache_width_factor: int = 2,
                 gating: str = "") -> "DesignPoint":
        """Build a point from a class->count mapping, canonicalized."""
        pairs = tuple(
            (wc.value, wires[wc])
            for wc in DESIGN_POINT_CLASS_ORDER if wc in wires
        )
        if len(pairs) != len(wires):
            unknown = set(wires) - set(DESIGN_POINT_CLASS_ORDER)
            raise ValueError(f"unknown wire classes: {unknown}")
        return cls(node=node, wires=pairs, topology=topology,
                   cache_width_factor=cache_width_factor, gating=gating)

    def wire_mapping(self) -> Dict[WireClass, int]:
        return {WireClass(value): count for value, count in self.wires}

    @property
    def num_clusters(self) -> int:
        return TOPOLOGIES[self.topology]

    def model_name(self) -> str:
        """The ``dp@...`` model name :func:`repro.core.models.model`
        resolves to this point's node-scaled configuration."""
        return format_design_point(self.node, self.wire_mapping(),
                                   self.cache_width_factor)

    def encode(self) -> str:
        """Canonical identity string, e.g. ``dp@n32:B144+L36:cw2|xbar4``.

        Injective over (node, mix, cache width, topology, gating);
        everything except the topology and gating policy is exactly the
        model name, and those two are pinned separately because they
        reach the cache key through ``num_clusters`` /
        ``gating_policy`` rather than the model name.  Gated points
        append ``|g=<policy>``; ungated encodings stay byte-identical
        to their pre-gating spellings.
        """
        base = f"{self.model_name()}|{self.topology}"
        if self.gating:
            return f"{base}|g={self.gating}"
        return base

    @classmethod
    def decode(cls, text: str) -> "DesignPoint":
        """Inverse of :meth:`encode`; rejects non-canonical spellings."""
        model_part, sep, rest = text.partition("|")
        if not sep:
            raise ValueError(
                f"malformed design-point encoding {text!r}; expected "
                f"'<model-name>|<topology>[|g=<gating>]'"
            )
        topology, sep, gating_part = rest.partition("|")
        gating = ""
        if sep:
            if not gating_part.startswith("g="):
                raise ValueError(
                    f"malformed design-point encoding {text!r}; the "
                    f"third segment must be 'g=<gating-policy>'"
                )
            gating = gating_part[2:]
        node, wires, cache_width_factor = parse_design_point(model_part)
        return cls.from_mix(node, wires, topology, cache_width_factor,
                            gating=gating)

    def latency_scale(self) -> float:
        """The node's wire-latency multiplier, exactly 1.0 at 45 nm."""
        return node_scaling(self.node).latency_factor

    def compile_plans(self, base: ExperimentPlan,
                      benchmarks: Tuple[str, ...]
                      ) -> Tuple[ExperimentPlan, ...]:
        """One plan per benchmark: ``base`` with this point's model,
        clusters, latency scale and gating; its window and seed stay."""
        point = replace(base, model_name=self.model_name(),
                        num_clusters=self.num_clusters,
                        latency_scale=self.latency_scale(),
                        gating_policy=self.gating)
        return tuple(replace(point, benchmark=benchmark)
                     for benchmark in benchmarks)


@dataclass(frozen=True)
class PointMetrics:
    """One evaluated design point, normalized explorer-style.

    All relative quantities are against the 45 nm paper baseline
    (Model I on a crossbar, evaluated with the same benchmarks and
    window): ``rel_delay`` is wall-clock time (cycles over the node's
    clock), ``rel_dynamic``/``rel_leakage`` are node-scaled
    interconnect energies, ``energy`` is the Table 3/4-style relative
    processor energy (baseline = 100) and ``ed2`` is ``energy x
    rel_delay^2``.  ``ipc`` is the arithmetic-mean IPC and ``area_mm2``
    the total link metal area at the point's node.
    """

    point: DesignPoint
    ipc: float
    rel_delay: float
    rel_dynamic: float
    rel_leakage: float
    energy: float
    ed2: float
    area_mm2: float
