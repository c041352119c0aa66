"""Network topologies of the paper's Figure 2.

* :class:`CrossbarTopology` -- four clusters and the centralized L1 data
  cache connected through a crossbar (Figure 2a).  Every transfer crosses
  one link-length; per-class latencies come from Table 2's crossbar row.
* :class:`HierarchicalTopology` -- sixteen clusters in four groups of
  four; each group shares a crossbar and the crossbars are joined in a
  ring (Figure 2b, after Aggarwal & Franklin).  Inter-group transfers add
  Table 2's per-hop ring latency for each ring segment crossed.

Every node has a unidirectional *channel* in each direction ("c3:out",
"cache:in", ...), and the ring contributes per-direction segment channels
("ring:0>1", ...).  A :class:`Path` lists the channels a transfer must win
in its grant cycle, its latency per wire class, and the number of
link-lengths it spans (the energy weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..wires import CROSSBAR_LATENCY, RING_HOP_LATENCY, WireClass

#: Node name of the centralized L1 data cache (and colocated front-end).
CACHE_NODE = "cache"


#: The cluster counts a topology can connect: one crossbar joins two to
#: four clusters (Figure 2a), and beyond that the ring joins whole
#: groups of four (Figure 2b).
CLUSTER_COUNTS = "at least 2, and a multiple of 4 above 4"


def check_cluster_count(num_clusters: int) -> None:
    """Raise ``ValueError`` unless a topology can connect ``num_clusters``
    clusters: 2, 3, 4 or a multiple of 4 from 8 up."""
    if not (num_clusters >= 2
            and (num_clusters <= 4 or num_clusters % 4 == 0)):
        raise ValueError(
            f"cluster count must be {CLUSTER_COUNTS}, got {num_clusters!r}"
        )


def cluster_node(index: int) -> str:
    """Canonical node name of cluster ``index``."""
    if index < 0:
        raise ValueError("cluster index must be non-negative")
    return f"c{index}"


@dataclass(frozen=True)
class Path:
    """A routed path through the network.

    * ``channels`` -- every channel the transfer occupies in its grant
      cycle (source out-channel, ring segments, destination in-channel).
    * ``latency`` -- end-to-end cycles per wire class.
    * ``energy_weight`` -- link-lengths spanned; dynamic energy scales
      with this (1 for a crossbar transfer, 1 + hops via the ring).
    """

    channels: Tuple[str, ...]
    latency: Dict[WireClass, int]
    energy_weight: int


class Topology:
    """Base class: node/channel naming and path lookup.

    ``transmission_line_lwires`` models the paper's future-work design
    point: L-Wires implemented as transmission lines signal at a fraction
    of the speed of light, so their latency does *not* grow with the
    ``latency_scale`` applied to RC wires in wire-constrained
    technologies.
    """

    def __init__(self, num_clusters: int, latency_scale: float = 1.0,
                 transmission_line_lwires: bool = False) -> None:
        check_cluster_count(num_clusters)
        if latency_scale <= 0:
            raise ValueError("latency scale must be positive")
        self.num_clusters = num_clusters
        self.latency_scale = latency_scale
        self.transmission_line_lwires = transmission_line_lwires
        self._paths: Dict[Tuple[str, str], Path] = {}
        self._channel_factors: Dict[str, int] = {}
        self._build()

    # -- interface -------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return [cluster_node(i) for i in range(self.num_clusters)] + [CACHE_NODE]

    def path(self, src: str, dst: str) -> Path:
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise ValueError(f"no path from {src!r} to {dst!r}") from None

    def channel_width_factor(self, channel: str) -> int:
        """Width multiplier of a channel (cache and ring links are wider)."""
        return self._channel_factors[channel]

    @property
    def channels(self) -> List[str]:
        return sorted(self._channel_factors)

    def link_inventory(self) -> List[Tuple[str, int]]:
        """(link name, width factor) for every physical link, for leakage.

        Each bidirectional link appears once; its two channels share the
        factor.
        """
        raise NotImplementedError

    def scaled_latency(self, base: int) -> int:
        """Apply the wire-constraint latency scale, minimum one cycle."""
        return max(1, round(base * self.latency_scale))

    def _build(self) -> None:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _register_node_channels(self, node: str, factor: int) -> None:
        self._channel_factors[f"{node}:out"] = factor
        self._channel_factors[f"{node}:in"] = factor

    def _latency_map(self, base: Dict[WireClass, int],
                     hops: int = 0) -> Dict[WireClass, int]:
        result = {}
        for wc, crossbar in base.items():
            total = crossbar + hops * RING_HOP_LATENCY[wc]
            if wc is WireClass.L and self.transmission_line_lwires:
                # Time-of-flight: unaffected by RC wire scaling.
                result[wc] = max(1, total)
                continue
            result[wc] = self.scaled_latency(total)
        # W-Wires, when present, are modelled at PW latency rounded from
        # their relative delay (1.0 vs 1.2); one cycle faster than PW.
        w_total = max(
            1, round(base[WireClass.PW] / 1.2) + hops * RING_HOP_LATENCY[WireClass.PW]
        )
        result[WireClass.W] = self.scaled_latency(w_total)
        return result


class CrossbarTopology(Topology):
    """Figure 2(a): clusters and the cache around one crossbar."""

    def __init__(self, num_clusters: int = 4, latency_scale: float = 1.0,
                 transmission_line_lwires: bool = False) -> None:
        super().__init__(num_clusters, latency_scale,
                         transmission_line_lwires)

    def _build(self) -> None:
        for i in range(self.num_clusters):
            self._register_node_channels(cluster_node(i), factor=1)
        self._register_node_channels(CACHE_NODE, factor=2)
        latency = self._latency_map(dict(CROSSBAR_LATENCY))
        for src in self.nodes:
            for dst in self.nodes:
                if src == dst:
                    continue
                self._paths[(src, dst)] = Path(
                    channels=(f"{src}:out", f"{dst}:in"),
                    latency=latency,
                    energy_weight=1,
                )

    def link_inventory(self) -> List[Tuple[str, int]]:
        links = [(cluster_node(i), 1) for i in range(self.num_clusters)]
        links.append((CACHE_NODE, 2))
        return links


class HierarchicalTopology(Topology):
    """Figure 2(b): groups of four clusters, crossbars joined in a ring.

    The cache hangs off group 0's crossbar.  Ring segments have the same
    width factor as the cache link (they aggregate a whole group's
    traffic).  Minimal-distance ring routing, clockwise on ties.
    """

    GROUP_SIZE = 4

    def __init__(self, num_clusters: int = 16, latency_scale: float = 1.0,
                 ring_width_factor: int = 2,
                 transmission_line_lwires: bool = False) -> None:
        if num_clusters % self.GROUP_SIZE:
            raise ValueError(
                f"cluster count must be a multiple of {self.GROUP_SIZE}"
            )
        if ring_width_factor < 1:
            raise ValueError("ring width factor must be >= 1")
        self.ring_width_factor = ring_width_factor
        self.num_groups = num_clusters // self.GROUP_SIZE
        super().__init__(num_clusters, latency_scale,
                         transmission_line_lwires)

    def group_of(self, node: str) -> int:
        if node == CACHE_NODE:
            return 0
        return int(node[1:]) // self.GROUP_SIZE

    def _ring_route(self, src_group: int,
                    dst_group: int) -> Tuple[List[str], int]:
        """Ring segment channels and hop count between two groups."""
        n = self.num_groups
        forward = (dst_group - src_group) % n
        backward = (src_group - dst_group) % n
        segments: List[str] = []
        if forward <= backward:
            step, hops = 1, forward
        else:
            step, hops = -1, backward
        g = src_group
        for _ in range(hops):
            nxt = (g + step) % n
            segments.append(f"ring:{g}>{nxt}")
            g = nxt
        return segments, hops

    def _build(self) -> None:
        for i in range(self.num_clusters):
            self._register_node_channels(cluster_node(i), factor=1)
        self._register_node_channels(CACHE_NODE, factor=2)
        for g in range(self.num_groups):
            nxt = (g + 1) % self.num_groups
            self._channel_factors[f"ring:{g}>{nxt}"] = self.ring_width_factor
            self._channel_factors[f"ring:{nxt}>{g}"] = self.ring_width_factor
        for src in self.nodes:
            for dst in self.nodes:
                if src == dst:
                    continue
                segments, hops = self._ring_route(
                    self.group_of(src), self.group_of(dst)
                )
                channels = (f"{src}:out", *segments, f"{dst}:in")
                self._paths[(src, dst)] = Path(
                    channels=channels,
                    latency=self._latency_map(dict(CROSSBAR_LATENCY), hops),
                    energy_weight=1 + hops,
                )

    def link_inventory(self) -> List[Tuple[str, int]]:
        links = [(cluster_node(i), 1) for i in range(self.num_clusters)]
        links.append((CACHE_NODE, 2))
        for g in range(self.num_groups):
            nxt = (g + 1) % self.num_groups
            links.append((f"ring:{g}-{nxt}", self.ring_width_factor))
        return links
