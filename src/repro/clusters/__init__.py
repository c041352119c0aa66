"""Cluster execution resources, steering, and criticality prediction."""

from .cluster import DEFAULT_FU_COUNTS, FU_POOL, Cluster
from .criticality import CriticalityPredictor
from .steering import SteeringHeuristic, SteeringWeights

__all__ = [
    "DEFAULT_FU_COUNTS",
    "FU_POOL",
    "Cluster",
    "CriticalityPredictor",
    "SteeringHeuristic",
    "SteeringWeights",
]
