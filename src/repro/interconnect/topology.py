"""The network topology of the paper's Figure 2.

Clusters sit in groups of four around a crossbar (Figure 2a: four
clusters and the centralized L1 data cache).  With more than one group a
ring joins the crossbars (Figure 2b, after Aggarwal & Franklin): one
ring link for two groups, one link per group from three groups up.
Every transfer crosses one crossbar link-length; an inter-group transfer
adds Table 2's per-hop ring latency for each ring segment crossed.  The
cache hangs off group 0's crossbar.

Every node has a physical link to its crossbar ("c3", "cache") with a
unidirectional *channel* in each direction ("c3:out", "c3:in"); a ring
link "ring:0-1" has one channel per direction ("ring:0>1", "ring:1>0").
This module is the only one that knows these names: other modules ask
:meth:`Topology.link_of`, :meth:`Topology.channels_of` and
:meth:`Topology.cluster_of`.  A :class:`Path` lists the channels a
transfer must win in its grant cycle, its latency per wire class, and
the number of link-lengths it spans (the energy weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..wires import CROSSBAR_LATENCY, RING_HOP_LATENCY, WireClass

#: Node name of the centralized L1 data cache (and colocated front-end).
CACHE_NODE = "cache"

#: Clusters per crossbar.
GROUP_SIZE = 4

#: Width factor of the cache link and of every ring link (each carries a
#: whole group's traffic).
WIDE_LINK_FACTOR = 2


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
    """Groups of four clusters on crossbars, the crossbars on a ring.

    Ring routing takes the shorter way round, clockwise on ties.

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
        self.num_groups = -(-num_clusters // GROUP_SIZE)
        #: Link -> width factor, in inventory order.
        self._factor: Dict[str, int] = {}
        #: Link name, either way round for a ring link -> its channels.
        self._channels_of: Dict[str, Tuple[str, ...]] = {}
        self._link_of: Dict[str, str] = {}
        self._cluster_of: Dict[str, int] = {}
        for i in range(num_clusters):
            node = cluster_node(i)
            self._add_link(node, 1, f"{node}:out", f"{node}:in")
            for channel in self._channels_of[node]:
                self._cluster_of[channel] = i
        self._add_link(CACHE_NODE, WIDE_LINK_FACTOR,
                       f"{CACHE_NODE}:out", f"{CACHE_NODE}:in")
        n = self.num_groups
        for g in range(n if n > 2 else n - 1):
            nxt = (g + 1) % n
            self._add_link(f"ring:{g}-{nxt}", WIDE_LINK_FACTOR,
                           f"ring:{g}>{nxt}", f"ring:{nxt}>{g}")
            self._channels_of[f"ring:{nxt}-{g}"] = \
                self._channels_of[f"ring:{g}-{nxt}"]
        latency = [self._latency_map(hops) for hops in range(n // 2 + 1)]
        self._paths: Dict[Tuple[str, str], Path] = {}
        for src in self.nodes:
            for dst in self.nodes:
                if src == dst:
                    continue
                segments = self._ring_route(self.group_of(src),
                                            self.group_of(dst))
                hops = len(segments)
                self._paths[(src, dst)] = Path(
                    channels=(f"{src}:out", *segments, f"{dst}:in"),
                    latency=latency[hops],
                    energy_weight=1 + hops,
                )

    def _add_link(self, link: str, factor: int, *channels: str) -> None:
        self._factor[link] = factor
        self._channels_of[link] = channels
        for channel in channels:
            self._link_of[channel] = link

    # -- names -----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return [cluster_node(i) for i in range(self.num_clusters)] + [CACHE_NODE]

    @property
    def channels(self) -> List[str]:
        return sorted(self._link_of)

    def link_inventory(self) -> List[Tuple[str, int]]:
        """(link name, width factor) for every physical link, for leakage:
        clusters, cache, then ring.  Each bidirectional link appears once;
        its two channels share the factor."""
        return list(self._factor.items())

    def link_of(self, channel: str) -> str:
        """The physical link a channel belongs to."""
        return self._link_of[channel]

    def channels_of(self, link: str) -> Tuple[str, ...]:
        """The channels of a link (a ring link named either way round);
        ``()`` for a name that is no link."""
        return self._channels_of.get(link, ())

    def cluster_of(self, channel: str) -> Optional[int]:
        """The cluster whose link a channel is on; ``None`` for cache and
        ring channels."""
        return self._cluster_of.get(channel)

    def group_of(self, node: str) -> int:
        if node == CACHE_NODE:
            return 0
        return int(node[1:]) // GROUP_SIZE

    # -- paths -----------------------------------------------------------

    def path(self, src: str, dst: str) -> Path:
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise ValueError(f"no path from {src!r} to {dst!r}") from None

    def channel_width_factor(self, channel: str) -> int:
        """Width multiplier of a channel (cache and ring links are wider)."""
        return self._factor[self._link_of[channel]]

    def scaled_latency(self, base: int) -> int:
        """Apply the wire-constraint latency scale, minimum one cycle."""
        return max(1, round(base * self.latency_scale))

    def _ring_route(self, src_group: int, dst_group: int) -> List[str]:
        """Ring segment channels between two groups."""
        n = self.num_groups
        forward = (dst_group - src_group) % n
        backward = (src_group - dst_group) % n
        step, hops = (1, forward) if forward <= backward else (-1, backward)
        segments: List[str] = []
        g = src_group
        for _ in range(hops):
            nxt = (g + step) % n
            segments.append(f"ring:{g}>{nxt}")
            g = nxt
        return segments

    def _latency_map(self, hops: int) -> Dict[WireClass, int]:
        result = {}
        for wc, crossbar in CROSSBAR_LATENCY.items():
            total = crossbar + hops * RING_HOP_LATENCY[wc]
            if wc is WireClass.L and self.transmission_line_lwires:
                # Time-of-flight: unaffected by RC wire scaling.
                result[wc] = max(1, total)
                continue
            result[wc] = self.scaled_latency(total)
        # W-Wires, when present, are modelled at PW latency rounded from
        # their relative delay (1.0 vs 1.2); one cycle faster than PW.
        w_total = max(
            1, round(CROSSBAR_LATENCY[WireClass.PW] / 1.2)
            + hops * RING_HOP_LATENCY[WireClass.PW]
        )
        result[WireClass.W] = self.scaled_latency(w_total)
        return result
