"""Sweep the ten interconnect models over a workload mix and rank them.

Reproduces the Table 3 methodology at example scale: run each model,
normalize against Model I, and print the IPC / energy / ED^2 trade-off.

Run:  python examples/heterogeneous_sweep.py [benchmark ...]
"""

import sys

from repro import ModelResult, all_models, relative_metrics
from repro.harness import ExperimentPlan, ExperimentRunner
from repro.harness.formatting import render_table

BENCHMARKS = ("gzip", "mesa", "swim")
INSTRUCTIONS = 4000
WARMUP = 1200


def main() -> None:
    benchmarks = tuple(sys.argv[1:]) or BENCHMARKS
    print(f"Sweeping Models I..X over {', '.join(benchmarks)} "
          f"({INSTRUCTIONS} instructions each)...\n")

    # One batch: the runner runs every model of a benchmark off one
    # annotated trace and serves repeats from its result cache.
    plans = {m.name: [ExperimentPlan(m.name, bench,
                                     instructions=INSTRUCTIONS,
                                     warmup=WARMUP)
                      for bench in benchmarks]
             for m in all_models()}
    runs = ExperimentRunner(verbose=False).run_many(
        [plan for per in plans.values() for plan in per])
    results = {}
    for m in all_models():
        results[m.name] = ModelResult(
            model=m.name, runs=tuple(runs[plan] for plan in plans[m.name]))
        print(f"  Model {m.name:>4s} ({m.description}): "
              f"AM IPC {results[m.name].am_ipc:.3f}")

    baseline = results["I"]
    rows = []
    for m in all_models():
        rel = relative_metrics(
            results[m.name], baseline,
            description=m.description,
            relative_metal_area=m.relative_metal_area(),
        )
        rows.append((rel.ed2(0.20), [
            m.name, m.description, f"{rel.am_ipc:.2f}",
            f"{100 * rel.relative_dynamic:.0f}",
            f"{rel.processor_energy(0.20):.0f}",
            f"{rel.ed2(0.20):.1f}",
        ]))

    rows.sort(key=lambda pair: pair[0])
    print()
    print(render_table(
        ["Model", "Links", "IPC", "rel dyn", "E(20%)", "ED2(20%)"],
        [row for _, row in rows],
        title="Models ranked by ED^2 (20% interconnect share; "
              "Model I = 100):",
    ))
    best = rows[0][1]
    print(f"\nBest ED^2: Model {best[0]} ({best[1]}) -- the paper's "
          f"conclusion: heterogeneous mixes win at every metal budget.")


if __name__ == "__main__":
    main()
