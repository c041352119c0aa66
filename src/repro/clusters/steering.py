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

Scoring is a flattened Python loop on small machines and numpy passes
over precomputed affinity rows from
:attr:`SteeringHeuristic.NUMPY_MIN_CLUSTERS` clusters up (the paper's
16-cluster configurations).  Both paths produce every cluster's score
by the same sequence of IEEE-754 operations -- per-element
multiply-then-add, no reductions, no reassociation (simlint SIM106) --
so the choice does not depend on which path ran.  numpy is imported on
first use, so small machines never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

    #: Below this cluster count the flattened loop beats numpy's
    #: per-call overhead; at or above it the numpy path wins.
    NUMPY_MIN_CLUSTERS = 8

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
        self.steered = 0
        self.overflowed = 0
        # Accumulated per-cluster penalties from degraded (faulted)
        # links; zero-cost on the healthy path.
        self._link_penalty = [0.0] * n
        self._any_degraded = False
        self._np = None
        if n >= self.NUMPY_MIN_CLUSTERS:
            import numpy as np

            self._np = np
            self._aff_np = np.asarray(self._affinity, dtype=np.float64)
            self._cache_aff_np = np.asarray(self._cache_affinity,
                                            dtype=np.float64)
            self._iq_np = np.asarray(
                [c.iq_size for c in self.clusters], dtype=np.float64
            )
            self._penalty_np = np.zeros(n, dtype=np.float64)

    def note_degraded_link(self, cluster_index: int,
                           cycle: int = 0) -> None:
        """A wire plane on this cluster's link died: steer away from it."""
        if 0 <= cluster_index < self._n:
            self._link_penalty[cluster_index] += self.weights.degraded_link
            self._any_degraded = True
            if self._np is not None:
                self._penalty_np[cluster_index] = \
                    self._link_penalty[cluster_index]
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
        if self._np is not None:
            scores, free = self._score_np(producers, op)
        else:
            scores, free = self._score(producers, op)

        # argmax over (score, free IQ entries, earliest index).
        best = 0
        best_score = scores[0]
        best_free = free[0]
        for i in range(1, self._n):
            score = scores[i]
            if score > best_score or (score == best_score
                                      and free[i] > best_free):
                best = i
                best_score = score
                best_free = free[i]

        has_dest = instr.rec.dest >= 0
        chosen = clusters[best]
        if chosen.can_accept(op, has_dest):
            self.steered += 1
            return chosen
        fallback = None
        for j in self._orders[best]:
            cluster = clusters[j]
            if cluster.can_accept(op, has_dest):
                fallback = cluster
                break
        if fallback is not None:
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
        """Flattened scoring: (per-cluster scores, free IQ entries)."""
        n = self._n
        clusters = self.clusters
        w = self.weights
        scores = [0.0] * n
        for _, producer in producers:
            home = producer.cluster
            if 0 <= home < n:
                affinity = self._affinity[home]
                dep = w.dependence
                for c in range(n):
                    scores[c] += dep * affinity[c]
        if len(producers) > 1:
            pcs = [p.rec.pc for _, p in producers]
            critical = self.criticality.pick_critical(pcs)
            if critical is not None:
                home = producers[critical][1].cluster
                if 0 <= home < n:
                    affinity = self._affinity[home]
                    bonus = w.critical_bonus
                    for c in range(n):
                        scores[c] += bonus * affinity[c]
        balance = w.load_balance
        free = [0] * n
        if op._fp:
            for i in range(n):
                cluster = clusters[i]
                entries = cluster.free_fp_iq
                free[i] = entries
                scores[i] += balance * (entries / cluster.iq_size)
        else:
            for i in range(n):
                cluster = clusters[i]
                entries = cluster.free_int_iq
                free[i] = entries
                scores[i] += balance * (entries / cluster.iq_size)
        if op._mem:
            proximity_w = w.cache_proximity
            cache_affinity = self._cache_affinity
            for i in range(n):
                scores[i] += proximity_w * cache_affinity[i]
        if self._any_degraded:
            penalties = self._link_penalty
            for i in range(n):
                scores[i] -= penalties[i]
        return scores, free

    def _score_np(self, producers, op):
        """Numpy scoring, the same operations as :meth:`_score`."""
        np = self._np
        n = self._n
        w = self.weights
        scores = np.zeros(n, dtype=np.float64)
        for _, producer in producers:
            home = producer.cluster
            if 0 <= home < n:
                scores += w.dependence * self._aff_np[home]
        if len(producers) > 1:
            pcs = [p.rec.pc for _, p in producers]
            critical = self.criticality.pick_critical(pcs)
            if critical is not None:
                home = producers[critical][1].cluster
                if 0 <= home < n:
                    scores += w.critical_bonus * self._aff_np[home]
        if op._fp:
            free = [c.free_fp_iq for c in self.clusters]
        else:
            free = [c.free_int_iq for c in self.clusters]
        free_np = np.asarray(free, dtype=np.float64)
        scores += w.load_balance * (free_np / self._iq_np)
        if op._mem:
            scores += w.cache_proximity * self._cache_aff_np
        if self._any_degraded:
            scores -= self._penalty_np
        return scores.tolist(), free

    def train_criticality(self, last_pc: int,
                          other_pcs: Sequence[int]) -> None:
        self.criticality.train(last_pc, other_pcs)
