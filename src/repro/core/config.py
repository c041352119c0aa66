"""Processor and interconnect configuration (the paper's Table 1).

:class:`ProcessorConfig` collects every simulator parameter; the defaults
reproduce Table 1 exactly.  :class:`InterconnectConfig` names a link
composition (wire counts per class, bidirectional totals as the paper's
tables quote them) plus the wire-management policy flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..interconnect.plane import LinkComposition
from ..interconnect.selection import PolicyFlags
from ..memory.hierarchy import HierarchyConfig
from ..wires import WireClass, WireSpec


@dataclass(frozen=True)
class ProcessorConfig:
    """Table 1 parameters plus structural knobs."""

    num_clusters: int = 4
    fetch_width: int = 8
    fetch_queue_size: int = 64
    max_fetch_blocks: int = 2
    dispatch_width: int = 8
    commit_width: int = 8
    rob_size: int = 480
    issue_queue_size: int = 15
    regfile_size: int = 32
    lsq_size: int = 128
    #: Front-end pipeline refill after a redirect signal arrives; together
    #: with branch resolution and the signal's network latency this yields
    #: Table 1's "at least 12 cycles" mispredict penalty.
    frontend_refill: int = 10
    icache_size_kb: int = 32
    icache_assoc: int = 2
    icache_miss_penalty: int = 12
    #: Global multiplier on inter-cluster latencies (the paper's
    #: "wire-constrained future technology" sensitivity study doubles it).
    latency_scale: float = 1.0
    #: Front-end squash after a memory-ordering violation.
    violation_penalty: int = 12
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("need at least one cluster")
        for name in ("fetch_width", "fetch_queue_size", "dispatch_width",
                     "commit_width", "rob_size", "issue_queue_size",
                     "regfile_size", "lsq_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.latency_scale <= 0:
            raise ValueError("latency scale must be positive")


@dataclass(frozen=True)
class InterconnectConfig:
    """A link composition and the policy that drives wire selection.

    ``wire_specs`` optionally overrides the per-class electrical
    parameters with a node-scaled catalog (see
    :func:`repro.wires.scale_catalog`); None keeps Table 2's 45 nm
    values.
    """

    wires: Mapping[WireClass, int]
    flags: PolicyFlags = field(default_factory=PolicyFlags)
    cache_width_factor: int = 2
    wire_specs: Mapping[WireClass, WireSpec] = None

    def __post_init__(self) -> None:
        if not self.wires:
            raise ValueError("interconnect needs at least one wire plane")

    def build_composition(self) -> LinkComposition:
        return LinkComposition(dict(self.wires), self.cache_width_factor,
                               specs=self.wire_specs)

    def describe(self) -> str:
        return self.build_composition().describe()


def baseline_interconnect() -> InterconnectConfig:
    """Model I: 144 B-Wires per cluster link (the paper's baseline)."""
    return InterconnectConfig(wires={WireClass.B: 144})


def wire_counts(**kwargs: int) -> Dict[WireClass, int]:
    """Convenience: ``wire_counts(B=144, L=36)`` -> composition mapping."""
    return {WireClass[name]: count for name, count in kwargs.items()}
