"""Heterogeneous inter-cluster interconnect (Sections 3 and 4 of the paper).

Links are bundles of wire planes (B-, PW-, L-Wires); a per-transfer
selection policy chooses the plane each message rides.
"""

from .errors import ConfigError, UnroutableError
from .loadbalance import ImbalanceDetector, TrafficWindow
from .message import (
    DEFAULT_BITS,
    LS_COMPARE_BITS,
    LWIRE_BITS,
    MISPREDICT_BITS,
    MS_ADDRESS_BITS,
    NARROW_DATA_BITS,
    NARROW_MAX_VALUE,
    OPERAND_BITS,
    OPERAND_DATA_BITS,
    PARTIAL_ADDRESS_BITS,
    TAG_BITS,
    Segment,
    Transfer,
    TransferKind,
    is_narrow,
)
from .network import ChannelReport, DegradationReport, Network
from .plane import LinkComposition, PlaneSpec
from .selection import PlannedSegment, PolicyFlags, WireSelector
from .stats import InterconnectStats, PlaneActivity, leakage_energy
from .topology import (
    CACHE_NODE,
    Path,
    Topology,
    cluster_node,
)

__all__ = [
    "DEFAULT_BITS",
    "LS_COMPARE_BITS",
    "LWIRE_BITS",
    "MISPREDICT_BITS",
    "MS_ADDRESS_BITS",
    "NARROW_DATA_BITS",
    "NARROW_MAX_VALUE",
    "OPERAND_BITS",
    "OPERAND_DATA_BITS",
    "PARTIAL_ADDRESS_BITS",
    "TAG_BITS",
    "Segment",
    "Transfer",
    "TransferKind",
    "is_narrow",
    "LinkComposition",
    "PlaneSpec",
    "CACHE_NODE",
    "Path",
    "Topology",
    "cluster_node",
    "ImbalanceDetector",
    "TrafficWindow",
    "PlannedSegment",
    "PolicyFlags",
    "WireSelector",
    "InterconnectStats",
    "PlaneActivity",
    "leakage_energy",
    "ChannelReport",
    "ConfigError",
    "DegradationReport",
    "Network",
    "UnroutableError",
]
