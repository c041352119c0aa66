"""Dynamic instruction steering (Section 4, "Baseline Partitioned
Architecture").

While dispatching, the heuristic assigns each cluster a weight built from:

* data dependences -- clusters producing the instruction's inputs;
* criticality -- extra weight for the producer of the predicted-critical
  operand;
* load balance -- clusters with many empty issue-queue entries;
* cache proximity -- for loads and stores, clusters close to the
  centralized data cache.

The instruction goes to the heaviest cluster; if that cluster has no free
register or issue-queue entry, to the nearest cluster that has both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.instruction import DynInstr
from ..interconnect.topology import CACHE_NODE, Topology, cluster_node
from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry
from .cluster import Cluster
from .criticality import CriticalityPredictor


@dataclass(frozen=True)
class SteeringWeights:
    """Relative importance of the steering criteria."""

    dependence: float = 2.0
    critical_bonus: float = 2.0
    load_balance: float = 1.5
    cache_proximity: float = 1.5
    #: Penalty per wire plane lost on a cluster's link (fault
    #: injection): instructions drift away from clusters whose links
    #: degraded, shrinking the traffic that must cross crippled wires.
    degraded_link: float = 2.0


class SteeringHeuristic:
    """Weight-based cluster assignment."""

    def __init__(self, clusters: Sequence[Cluster], topology: Topology,
                 weights: SteeringWeights | None = None,
                 criticality: CriticalityPredictor | None = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if not clusters:
            raise ValueError("need at least one cluster")
        self.clusters = list(clusters)
        self.weights = weights or SteeringWeights()
        self.criticality = criticality or CriticalityPredictor()
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        n = self._n = len(self.clusters)
        # Distance proxies from the topology: link-lengths spanned.
        self._cache_distance = [
            topology.path(cluster_node(i), CACHE_NODE).energy_weight
            for i in range(n)
        ]
        self._cluster_distance = [
            [
                0 if i == j else topology.path(
                    cluster_node(i), cluster_node(j)
                ).energy_weight
                for j in range(n)
            ]
            for i in range(n)
        ]
        # Affinity of placing a consumer in cluster j to a producer in i:
        # 2.0 for the same cluster (no communication), 1.0 within one
        # link-length, falling off with distance.  Keeps dependence
        # chains inside a crossbar group on hierarchical topologies.
        self._affinity = [
            [
                2.0 if i == j else 1.0 / self._cluster_distance[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        min_cache = min(self._cache_distance)
        self._cache_affinity = [
            min_cache / d for d in self._cache_distance
        ]
        #: Overflow scan order per preferred cluster: nearest first,
        #: ties by index.
        self._orders: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(
                range(n),
                key=lambda j, o=origin: (self._cluster_distance[o][j], j),
            ))
            for origin in range(n)
        )
        w = self.weights
        #: Score terms that never change: the load-balance term per
        #: (cluster, free IQ entries) and the cache-proximity term.
        self._balance = [
            [w.load_balance * (free / c.iq_size)
             for free in range(c.iq_size + 1)]
            for c in self.clusters
        ]
        self._proximity = [w.cache_proximity * a
                           for a in self._cache_affinity]
        #: Dependence plus critical-bonus pull per (producer homes,
        #: critical producer's home); a pure function of its key.
        self._pull: Dict[Tuple[Tuple[int, ...], Optional[int]],
                         List[float]] = {}
        self._no_pull = [0.0] * n
        self.steered = 0
        self.overflowed = 0
        # Accumulated per-cluster penalties from degraded (faulted)
        # links; zero-cost on the healthy path.
        self._link_penalty = [0.0] * n
        self._any_degraded = False

    def note_degraded_link(self, cluster_index: int,
                           cycle: int = 0) -> None:
        """A wire plane on this cluster's link died: steer away from it."""
        if 0 <= cluster_index < self._n:
            self._link_penalty[cluster_index] += self.weights.degraded_link
            self._any_degraded = True
            tel = self.telemetry
            if tel.enabled:
                tel.count("steering.degraded_penalties")
                tel.emit(cycle, EventKind.STEERING_PENALTY, {
                    "cluster": cluster_index,
                    "penalty": self._link_penalty[cluster_index],
                })

    def choose(self, instr: DynInstr,
               producers: Sequence[Tuple[int, DynInstr]],
               cycle: int = 0) -> Optional[Cluster]:
        """Pick a cluster for ``instr``; None when every cluster is full.

        ``producers`` are (source register, in-flight producer) pairs for
        the instruction's not-yet-architected inputs.
        """
        clusters = self.clusters
        op = instr.rec.op
        has_dest = instr.rec.dest >= 0
        for cluster in clusters:
            if cluster.can_accept(op, has_dest):
                break
        else:
            return None
        best = self._score(producers, op)
        chosen = clusters[best]
        if chosen.can_accept(op, has_dest):
            self.steered += 1
            return chosen
        # Some cluster has room (checked above): spill to the nearest.
        for j in self._orders[best]:
            fallback = clusters[j]
            if fallback.can_accept(op, has_dest):
                break
        self.overflowed += 1
        tel = self.telemetry
        if tel.enabled:
            # The heaviest cluster was full: the instruction spilled
            # to the nearest cluster with room.
            tel.count("steering.overflow")
            tel.emit(cycle, EventKind.STEER_OVERFLOW, {
                "preferred": best,
                "fallback": fallback.index,
            })
        return fallback

    # -- scoring -----------------------------------------------------------

    def _score(self, producers, op):
        """Index of the heaviest cluster, ties to more free IQ entries,
        then to the lower index.

        Each score is ``((pull + balance) + proximity) - penalty``, the
        float sequence of accumulating the criteria one at a time.
        """
        if producers:
            homes = [p.cluster for _, p in producers]
            critical_home = None
            if len(producers) > 1:
                critical = self.criticality.pick_critical(
                    [p.rec.pc for _, p in producers])
                if critical is not None:
                    critical_home = homes[critical]
            key = (tuple(homes), critical_home)
            pull = self._pull.get(key)
            if pull is None:
                pull = self._pull[key] = self._build_pull(*key)
        else:
            pull = self._no_pull
        fp = op._fp
        proximity = self._proximity if op._mem else None
        penalties = self._link_penalty if self._any_degraded else None
        balance = self._balance
        best = 0
        best_score = -math.inf
        best_free = -1
        i = 0
        for cluster in self.clusters:
            free = cluster.free_fp_iq if fp else cluster.free_int_iq
            score = pull[i] + balance[i][free]
            if proximity is not None:
                score += proximity[i]
            if penalties is not None:
                score -= penalties[i]
            if score > best_score or (score == best_score
                                      and free > best_free):
                best = i
                best_score = score
                best_free = free
            i += 1
        return best

    def _build_pull(self, homes, critical_home):
        """Dependence and critical-bonus pull per cluster, accumulated
        producer by producer, then the bonus."""
        n = self._n
        w = self.weights
        pull = [0.0] * n
        for home in homes:
            if 0 <= home < n:
                affinity = self._affinity[home]
                dep = w.dependence
                for c in range(n):
                    pull[c] += dep * affinity[c]
        if critical_home is not None and 0 <= critical_home < n:
            affinity = self._affinity[critical_home]
            bonus = w.critical_bonus
            for c in range(n):
                pull[c] += bonus * affinity[c]
        return pull

    def train_criticality(self, last_pc: int,
                          other_pcs: Sequence[int]) -> None:
        self.criticality.train(last_pc, other_pcs)
