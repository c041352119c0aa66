"""Per-node technology scaling of the Table 2 wire catalog.

The paper evaluates one technology point (45 nm).  This module scales
its wire catalog across the nodes of the ITRS shrink path
(45 -> 32 -> 22 -> 16 -> 11 -> 8 nm) so the design-space explorer in
:mod:`repro.explore` can search heterogeneous plane mixes at every
node, not just the one the paper hand-picked.

The scaling tables are shaped after lumos' ``compute.py`` (hoangt/lumos;
see SNIPPETS.md): per-node supply-voltage and frequency multipliers of
its aggressive ITRS projection, a 0.5x-per-generation area shrink, and
ITRS threshold voltages.  On top of those literals, the RC geometry and
repeater models of :mod:`repro.wires.geometry` /
:mod:`repro.wires.repeaters` -- which already take the technology node
as a parameter -- supply the wire-specific part: how the
delay/energy/leakage of an optimally repeated minimum-pitch wire moves
between nodes.

Everything is normalized at 45 nm: every scale factor is exactly 1.0
there, and :func:`scale_catalog` at 45 nm reproduces the canonical
Table 2 catalog bit-for-bit (pinned by ``tests/wires/test_scaling.py``).
The catalog holds electrical parameters only: a run's cycle latencies
come from :class:`~repro.interconnect.topology.Topology`, which scales
and rounds each path's total by :attr:`NodeScaling.latency_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .catalog import CANONICAL_SPECS, REFERENCE_LENGTH, derive_wire_spec
from .geometry import minimum_width_geometry
from .repeaters import (
    optimal_repeater_config,
    repeated_wire_delay,
    repeated_wire_dynamic_energy,
    repeated_wire_leakage_power,
)
from .wiretypes import WireClass, WireSpec

#: Technology nodes the scaling tables cover, in shrink order (nm).
SUPPORTED_NODES: Tuple[int, ...] = (45, 32, 22, 16, 11, 8)

#: Supply voltage at the 45 nm anchor (V).
VDD_BASE_V = 1.0

#: Clock frequency at the 45 nm anchor (GHz) -- lumos' out-of-order
#: core baseline.
FREQ_BASE_GHZ = 3.7

#: Per-node supply-voltage multipliers (lumos compute.py, ITRS).
VDD_SCALE: Dict[int, float] = {
    45: 1.0, 32: 0.93, 22: 0.84, 16: 0.75, 11: 0.68, 8: 0.62,
}

#: Per-node clock-frequency multipliers (lumos compute.py, ITRS).
FREQ_SCALE: Dict[int, float] = {
    45: 1.0, 32: 1.09, 22: 2.38, 16: 3.21, 11: 4.17, 8: 3.85,
}

#: Per-node die/cluster area multipliers: 0.5x per generation.
AREA_SCALE: Dict[int, float] = {
    45: 1.0, 32: 0.5, 22: 0.25, 16: 0.125, 11: 0.0625, 8: 0.03125,
}

#: ITRS high-performance device threshold voltages (V), 2009 FEP table
#: (the vth_base table of lumos compute.py).
VTH_V: Dict[int, float] = {
    45: 0.3201, 32: 0.297, 22: 0.2673, 16: 0.2409, 11: 0.2178, 8: 0.198,
}

#: Subthreshold swing used for the leakage-current trend: one decade of
#: repeater leakage per this much threshold-voltage reduction (V).
SUBTHRESHOLD_SWING_V = 0.1


def _check_node(node: int) -> int:
    if node not in AREA_SCALE:
        raise ValueError(
            f"unsupported technology node {node!r} nm; supported nodes: "
            f"{', '.join(str(n) for n in SUPPORTED_NODES)}"
        )
    return node


def supply_voltage(node: int) -> float:
    """Supply voltage at ``node`` (V)."""
    return VDD_BASE_V * VDD_SCALE[_check_node(node)]


def clock_frequency_ghz(node: int) -> float:
    """Projected clock frequency at ``node`` (GHz)."""
    return FREQ_BASE_GHZ * FREQ_SCALE[_check_node(node)]


def link_length_m(node: int) -> float:
    """Inter-cluster link length at ``node`` (m).

    The 45 nm anchor is :data:`~repro.wires.catalog.REFERENCE_LENGTH`
    (10 mm); links shrink with the linear die dimension, i.e. with the
    square root of the per-node area scale.
    """
    return REFERENCE_LENGTH * math.sqrt(AREA_SCALE[_check_node(node)])


def link_metal_area_mm2(w_wire_tracks: float, node: int) -> float:
    """Metal area (mm^2) of ``w_wire_tracks`` W-Wire-equivalent tracks.

    One track occupies one minimum pitch across the link length; wider
    wire classes are already expressed in W-track equivalents by
    :meth:`~repro.interconnect.plane.LinkComposition.relative_metal_area`.
    """
    if w_wire_tracks < 0:
        raise ValueError("track count must be non-negative")
    pitch = minimum_width_geometry(float(_check_node(node))).pitch
    return w_wire_tracks * pitch * link_length_m(node) * 1e6


def _w_wire_figures(node: int) -> Tuple[float, float, float]:
    """(delay s, dynamic J, leakage W) of the node's repeated W-Wire."""
    geometry = minimum_width_geometry(float(node))
    config = optimal_repeater_config(geometry)
    length = link_length_m(node)
    return (
        repeated_wire_delay(geometry, config, length),
        repeated_wire_dynamic_energy(geometry, config, length),
        repeated_wire_leakage_power(config, length),
    )


@dataclass(frozen=True)
class NodeScaling:
    """Every scale factor of one technology node, 45 nm == 1.0.

    * ``vdd`` / ``frequency_ghz`` -- absolute operating point.
    * ``latency_factor`` -- cross-link wire latency in *cycles* relative
      to 45 nm: the node's absolute W-Wire delay times its clock.  Rises
      with shrink because frequency outpaces wire delay (the paper's
      "wire-constrained future technology" knob).
    * ``dynamic_scale`` -- per-bit transfer energy relative to 45 nm
      (capacitance tracks the shorter link, times the Vdd^2 drop).
    * ``leakage_scale`` -- per-wire leakage power relative to 45 nm
      (repeater count/size trend, times Vdd, times the subthreshold
      leakage-current growth as Vth drops).
    * ``area_scale`` / ``linear_scale`` -- die area and linear shrink.
    """

    node: int
    vdd: float
    frequency_ghz: float
    latency_factor: float
    dynamic_scale: float
    leakage_scale: float
    area_scale: float
    linear_scale: float


def node_scaling(node: int) -> NodeScaling:
    """All scale factors of ``node``; every factor is 1.0 at 45 nm."""
    _check_node(node)
    delay_45, dynamic_45, leakage_45 = _w_wire_figures(45)
    delay_n, dynamic_n, leakage_n = _w_wire_figures(node)
    freq_45 = clock_frequency_ghz(45)
    freq_n = clock_frequency_ghz(node)
    vdd_ratio = VDD_SCALE[node]
    leak_current_growth = 10.0 ** (
        (VTH_V[45] - VTH_V[node]) / SUBTHRESHOLD_SWING_V
    )
    return NodeScaling(
        node=node,
        vdd=supply_voltage(node),
        frequency_ghz=freq_n,
        latency_factor=(delay_n * freq_n) / (delay_45 * freq_45),
        dynamic_scale=(dynamic_n / dynamic_45) * vdd_ratio * vdd_ratio,
        leakage_scale=(leakage_n / leakage_45) * vdd_ratio
        * leak_current_growth,
        area_scale=AREA_SCALE[node],
        linear_scale=math.sqrt(AREA_SCALE[node]),
    )


def _scaled_spec(wire_class: WireClass, node: int) -> WireSpec:
    """Canonical Table 2 values carried to ``node`` by derived ratios.

    Each quantity moves by the ratio of the analytically derived value
    at ``node`` to the derived value at 45 nm, so the canonical 45 nm
    anchor is preserved exactly (x/x == 1.0 in IEEE arithmetic) while
    inter-class relationships drift with the RC physics.
    """
    canonical = CANONICAL_SPECS[wire_class]
    derived_n = derive_wire_spec(wire_class, float(node))
    derived_45 = derive_wire_spec(wire_class, 45.0)
    return WireSpec(
        wire_class=wire_class,
        relative_delay=canonical.relative_delay
        * (derived_n.relative_delay / derived_45.relative_delay),
        relative_dynamic_energy=canonical.relative_dynamic_energy
        * (derived_n.relative_dynamic_energy
           / derived_45.relative_dynamic_energy),
        relative_leakage=canonical.relative_leakage
        * (derived_n.relative_leakage / derived_45.relative_leakage),
        area_factor=canonical.area_factor
        * (derived_n.area_factor / derived_45.area_factor),
    )


def scale_catalog(node: int) -> Dict[WireClass, WireSpec]:
    """Derive the Table-2-equivalent wire specs at ``node``.

    Each class's electrical parameters are relative to the same node's
    W-Wire (exactly Table 2's normalization).  At 45 nm the result is
    bit-identical to the canonical catalog (:data:`CANONICAL_SPECS`).
    """
    _check_node(node)
    return {
        wc: _scaled_spec(wc, node)
        for wc in (WireClass.W, WireClass.PW, WireClass.B, WireClass.L)
    }
