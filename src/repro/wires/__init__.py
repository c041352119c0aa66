"""Wire physics substrate: RC geometry, repeaters, transmission lines.

This package implements Section 2 of the paper -- the VLSI techniques that
make heterogeneous wires possible -- and its Table 2, the wire parameter
set the rest of the library consumes.
"""

from .catalog import (
    CANONICAL_SPECS,
    CROSSBAR_LATENCY,
    REFERENCE_LENGTH,
    RING_HOP_LATENCY,
    Table2Row,
    derive_wire_spec,
    derived_delay_ratio_l_vs_w,
    paper_delay_ratio_l_vs_w,
    table2_rows,
)
from .geometry import (
    EPS0,
    RHO_COPPER,
    WireGeometry,
    delay_ratio,
    minimum_width_geometry,
)
from .repeaters import (
    RepeaterConfig,
    optimal_repeater_config,
    power_optimal_repeater_config,
    repeated_wire_delay,
    repeated_wire_dynamic_energy,
    repeated_wire_leakage_power,
)
from .scaling import (
    FREQ_BASE_GHZ,
    SUPPORTED_NODES,
    VDD_BASE_V,
    NodeScaling,
    clock_frequency_ghz,
    link_length_m,
    link_metal_area_mm2,
    node_scaling,
    scale_catalog,
    supply_voltage,
)
from .transmission import (
    SPEED_OF_LIGHT,
    TransmissionLineSpec,
    transmission_line_speedup,
)
from .wiretypes import WireClass, WireSpec

__all__ = [
    "EPS0",
    "RHO_COPPER",
    "WireGeometry",
    "delay_ratio",
    "minimum_width_geometry",
    "RepeaterConfig",
    "optimal_repeater_config",
    "power_optimal_repeater_config",
    "repeated_wire_delay",
    "repeated_wire_dynamic_energy",
    "repeated_wire_leakage_power",
    "SPEED_OF_LIGHT",
    "TransmissionLineSpec",
    "transmission_line_speedup",
    "WireClass",
    "WireSpec",
    "CANONICAL_SPECS",
    "CROSSBAR_LATENCY",
    "REFERENCE_LENGTH",
    "RING_HOP_LATENCY",
    "Table2Row",
    "derive_wire_spec",
    "derived_delay_ratio_l_vs_w",
    "paper_delay_ratio_l_vs_w",
    "table2_rows",
    "FREQ_BASE_GHZ",
    "SUPPORTED_NODES",
    "VDD_BASE_V",
    "NodeScaling",
    "clock_frequency_ghz",
    "link_length_m",
    "link_metal_area_mm2",
    "node_scaling",
    "scale_catalog",
    "supply_voltage",
]
