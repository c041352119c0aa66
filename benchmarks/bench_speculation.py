"""Memory-dependence speculation study (Section 4's remark).

The paper: "the proposed pipeline works well and yields speedups even if
the processor implements some form of memory dependence speculation."
This bench runs the baseline and L-Wire machines with speculation on and
off, confirming (a) speculation itself helps the baseline, and (b) the
L-Wire partial-address gain survives it.
"""

from conftest import publish

from repro.core.config import ProcessorConfig
from repro.core.models import model
from repro.core.simulation import simulate_benchmark
from repro.harness import render_table


def test_speculation_interaction(benchmark, bench_suite, instructions,
                                 warmup, results_dir):
    suite = bench_suite[:8]

    def compute():
        totals = dict.fromkeys(
            (("I", False), ("I", True), ("VII", False), ("VII", True)), 0.0)
        # Every configuration of one benchmark back to back, so they
        # share its annotated trace.
        for bench in suite:
            for model_name, speculate in totals:
                cfg = ProcessorConfig(
                    memory_dependence_speculation=speculate
                )
                r = simulate_benchmark(
                    model(model_name).config, bench,
                    instructions=instructions, warmup=warmup, config=cfg,
                )
                totals[model_name, speculate] += r.ipc
        return {key: total / len(suite) for key, total in totals.items()}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    base_gain = (results[("I", True)] / results[("I", False)] - 1) * 100
    lwire_gain_nospec = (results[("VII", False)]
                         / results[("I", False)] - 1) * 100
    lwire_gain_spec = (results[("VII", True)]
                       / results[("I", True)] - 1) * 100
    publish(results_dir, "speculation", render_table(
        ["Configuration", "AM IPC"],
        [
            ["Model I, conservative LSQ", f"{results[('I', False)]:.3f}"],
            ["Model I, + dependence speculation",
             f"{results[('I', True)]:.3f} ({base_gain:+.1f}%)"],
            ["Model VII, conservative LSQ",
             f"{results[('VII', False)]:.3f} "
             f"(L-Wire gain {lwire_gain_nospec:+.1f}%)"],
            ["Model VII, + dependence speculation",
             f"{results[('VII', True)]:.3f} "
             f"(L-Wire gain {lwire_gain_spec:+.1f}%)"],
        ],
        title="Memory-dependence speculation (paper: the L-Wire pipeline "
              "'yields speedups even with memory dependence speculation')",
    ))
    # Speculation never hurts the baseline.
    assert results[("I", True)] >= results[("I", False)] * 0.99
    # The L-Wire layer still helps with speculation enabled.
    assert results[("VII", True)] > results[("I", True)] * 0.995
