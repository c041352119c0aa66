"""Leakage-aware dynamic power management for wire planes.

ROADMAP item 5: idle wire planes cost first-order leakage at small
technology nodes; this package gates them at runtime.  The pieces:

* :mod:`repro.power.policy` -- when a plane may step down
  (idle-countdown / traffic-EWMA hysteresis), as pure,
  string-round-trippable rules; always-on is ``None``, no policy.
* :mod:`repro.power.manager` -- the per-(link, plane) ACTIVE / WAKING /
  DROWSY / GATED machines, settled lazily from the injection stream so
  a processor that skips idle cycles reconstructs the same histories.

``repro run --gating idle:drowsy=64,gate=256`` turns it on; the
explorer sweeps ``gating_policy`` as a design axis.
"""

from .manager import (
    DROWSY_LEAKAGE_FRACTION,
    DROWSY_WAKE_ENERGY_PER_WIRE,
    GATED_LEAKAGE_FRACTION,
    GATED_WAKE_ENERGY_PER_WIRE,
    PlanePowerManager,
    PlanePowerReport,
    PowerState,
)
from .policy import (
    DEFAULT_DROWSY_WAKE,
    DEFAULT_GATED_WAKE,
    GatingPolicy,
    GatingSpecError,
    IdleThreshold,
    TrafficEwma,
    canonical_gating,
    parse_gating,
)

__all__ = [
    "DEFAULT_DROWSY_WAKE",
    "DEFAULT_GATED_WAKE",
    "DROWSY_LEAKAGE_FRACTION",
    "DROWSY_WAKE_ENERGY_PER_WIRE",
    "GATED_LEAKAGE_FRACTION",
    "GATED_WAKE_ENERGY_PER_WIRE",
    "GatingPolicy",
    "GatingSpecError",
    "IdleThreshold",
    "PlanePowerManager",
    "PlanePowerReport",
    "PowerState",
    "TrafficEwma",
    "canonical_gating",
    "parse_gating",
]
