"""Wire-plane fault injection and graceful degradation.

The paper's heterogeneous links bundle several wire planes with
different delay/power points -- which also means every link carries
built-in redundancy.  This package models the faults a real partitioned
processor would ride out (transient bit errors, permanent plane loss,
process-variation slowdown) and gives the network the deterministic
machinery to inject them.  Degraded-mode routing itself lives in
:mod:`repro.interconnect.network`.
"""

from .injector import FaultInjector
from .spec import NULL_FAULTS, FaultSpec, FaultSpecError, PlaneKill

__all__ = [
    "NULL_FAULTS",
    "FaultSpec",
    "FaultSpecError",
    "PlaneKill",
    "FaultInjector",
]
