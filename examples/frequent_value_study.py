"""Frequent-value locality and L-Wire compaction (extension).

Measures value locality in the synthetic benchmarks (after Yang et al.,
whom the paper cites for data compaction), then shows the online
frequent-value table covering wide register traffic that the 10-bit
narrow mechanism cannot.

Run:  python examples/frequent_value_study.py
"""

from dataclasses import replace

from repro.core.config import InterconnectConfig, wire_counts
from repro.core.simulation import build_processor
from repro.harness.formatting import render_table
from repro.interconnect.selection import PolicyFlags
from repro.operands import FrequentValueTable, frequent_value_coverage
from repro.workloads import TraceGenerator, profile

#: Trace records of the offline locality study; timed window and warmup.
STREAM = 20000
INSTRUCTIONS, WARMUP = 5000, 1500


def offline(bench: str):
    gen = TraceGenerator(profile(bench), seed=42)
    wide = [rec.value for rec in gen.stream(STREAM)
            if rec.writes_int_register and rec.value_width > 10]
    table = FrequentValueTable()
    hits = 0
    for value in wide:
        if table.contains(value):
            hits += 1
        table.observe(value)
    return (frequent_value_coverage(wide, 8),
            hits / max(1, len(wide)), len(wide))


def main() -> None:
    rows = []
    for bench in ("gzip", "crafty", "gap", "swim"):
        oracle, online, n = offline(bench)
        rows.append([bench, n, f"{oracle:.1%}", f"{online:.1%}"])
    print(render_table(
        ["Benchmark", "wide results", "top-8 coverage (oracle)",
         "online table hit rate"],
        rows,
        title="Value locality of wide integer results "
              "(Yang et al. report ~50% for SPEC95-Int):",
    ))

    print("\nTiming effect on Model VII (int benchmark):")
    flags_on = replace(PolicyFlags(), lwire_frequent_value=True)
    for label, flags in (("narrow only", PolicyFlags()),
                         ("narrow + frequent values", flags_on)):
        icfg = InterconnectConfig(wires=wire_counts(B=144, L=36),
                                  flags=flags)
        cpu = build_processor(icfg, "gzip")
        stats = cpu.run(INSTRUCTIONS, warmup=WARMUP)
        fv = cpu.network.selector.fv_transfers
        print(f"  {label:26s} IPC {stats.ipc:.3f}   "
              f"fv transfers {fv}")


if __name__ == "__main__":
    main()
