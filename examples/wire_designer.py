"""Explore the wire design space of Section 2 with the RC models.

Shows the three knobs the paper builds its heterogeneous interconnect
from: wire width/spacing (latency vs. bandwidth), repeater size/spacing
(latency vs. energy), and transmission lines (the extreme point).

Run:  python examples/wire_designer.py [--node NM]

``--node`` moves the study to another technology node (45 down to
8 nm): the geometry shrinks with the node's half-pitch and the link
length scales with the die (see repro.wires.scaling).
"""

import argparse

from repro.harness.formatting import render_table
from repro.wires import (
    SUPPORTED_NODES,
    TransmissionLineSpec,
    clock_frequency_ghz,
    link_length_m,
    minimum_width_geometry,
    optimal_repeater_config,
    power_optimal_repeater_config,
    repeated_wire_delay,
    repeated_wire_dynamic_energy,
    supply_voltage,
    transmission_line_speedup,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--node", type=int, choices=SUPPORTED_NODES, default=45,
        help="technology node in nm (default: 45)",
    )
    args = parser.parse_args()
    tech_nm = float(args.node)
    length = link_length_m(args.node)

    base = minimum_width_geometry(tech_nm)
    base_cfg = optimal_repeater_config(base)
    base_delay = repeated_wire_delay(base, base_cfg, length)
    base_energy = repeated_wire_dynamic_energy(base, base_cfg, length)

    print(f"Reference: minimum-pitch wire at {tech_nm:.0f} nm "
          f"(vdd {supply_voltage(args.node):.2f} V, "
          f"clock {clock_frequency_ghz(args.node):.2f} GHz), "
          f"{length * 1e3:.1f} mm link, delay-optimal repeaters\n")

    # Knob 1: width and spacing.
    rows = []
    for factor in (1, 2, 4, 8):
        geom = base.scaled(width_factor=factor, spacing_factor=factor)
        cfg = optimal_repeater_config(geom)
        delay = repeated_wire_delay(geom, cfg, length)
        energy = repeated_wire_dynamic_energy(geom, cfg, length)
        tracks = 1.0 / factor
        rows.append([
            f"{factor}x", f"{delay / base_delay:.2f}",
            f"{energy / base_energy:.2f}", f"{tracks:.3f}",
        ])
    print(render_table(
        ["Width/spacing", "Rel delay", "Rel energy", "Rel wires/area"],
        rows,
        title="Knob 1 -- wider wires are faster but fewer fit "
              "(L-Wires use 8x):",
    ))

    # Knob 2: repeater sizing.
    rows = []
    for penalty in (1.0, 1.1, 1.2, 1.5, 2.0):
        cfg = power_optimal_repeater_config(base, delay_penalty=penalty)
        delay = repeated_wire_delay(base, cfg, length)
        energy = repeated_wire_dynamic_energy(base, cfg, length)
        rows.append([
            f"{penalty:.1f}x", f"{delay / base_delay:.2f}",
            f"{energy / base_energy:.2f}",
            f"{cfg.size / base_cfg.size:.2f}",
            f"{cfg.spacing / base_cfg.spacing:.2f}",
        ])
    print("\n" + render_table(
        ["Delay budget", "Rel delay", "Rel energy", "Rel size",
         "Rel spacing"],
        rows,
        title="Knob 2 -- smaller, sparser repeaters trade delay for "
              "energy (PW-Wires use the 1.2x point):",
    ))

    # Knob 3: transmission lines.
    wide = base.scaled(8.0, 8.0)
    wide_cfg = optimal_repeater_config(wide)
    wide_delay = repeated_wire_delay(wide, wide_cfg, length)
    line = TransmissionLineSpec()
    speedup = transmission_line_speedup(wide_delay, line, length)
    print(f"\nKnob 3 -- transmission line vs. the 8x-wide RC wire: "
          f"{speedup:.1f}x faster")
    print(f"  (ripple velocity {line.propagation_velocity() / 2.998e8:.2f}c;"
          f" the paper restricts evaluation to RC L-Wires and treats"
          f" transmission lines as future work)")


if __name__ == "__main__":
    main()
