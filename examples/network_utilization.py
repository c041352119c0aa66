"""Inspect interconnect hot spots with the utilization report.

Shows where traffic concentrates on the 4-cluster crossbar (the cache
links) and how the PW plane of a heterogeneous link absorbs bursts --
the congestion the paper's load-imbalance criterion reacts to.

Run:  python examples/network_utilization.py
"""

from repro import model
from repro.core.simulation import build_processor
from repro.harness import render_table

INSTRUCTIONS, WARMUP = 5000, 1500


def report_for(model_name: str, benchmark: str = "gzip"):
    cpu = build_processor(model(model_name).config, benchmark)
    stats = cpu.run(INSTRUCTIONS, warmup=WARMUP)
    return cpu, stats


def main() -> None:
    for model_name in ("I", "V"):
        cpu, stats = report_for(model_name)
        rows = []
        for r in cpu.network.utilization_report(cycles=stats.cycles)[:8]:
            rows.append([
                r.channel, f"{r.wire_class.value}-Wires",
                r.capacity_bits, r.grants,
                f"{r.utilization:.1%}",
            ])
        print(render_table(
            ["Channel", "Plane", "bits/cycle", "grants", "utilization"],
            rows,
            title=(f"Model {model_name} "
                   f"({model(model_name).description}), gzip, "
                   f"IPC {stats.ipc:.2f} -- busiest channels:"),
        ))
        print()
    print("On Model V the PW plane drains store data and bursts, "
          "lowering the B plane's queueing -- the effect behind the "
          "paper's contention-reduction claim for PW-Wires.")


if __name__ == "__main__":
    main()
