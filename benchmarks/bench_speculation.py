"""Memory-dependence speculation study (Section 4's remark).

The paper: "the proposed pipeline works well and yields speedups even if
the processor implements some form of memory dependence speculation."
This bench runs the baseline and L-Wire machines with speculation on and
off, confirming (a) speculation itself helps the baseline, and (b) the
L-Wire partial-address gain survives it.
"""

from conftest import publish, run_variants

from repro.harness import ExperimentRunner, render_table
from repro.interconnect.selection import PolicyFlags


def test_speculation_interaction(benchmark, runner: ExperimentRunner,
                                 bench_suite, instructions, warmup,
                                 results_dir):
    suite = bench_suite[:8]

    def compute():
        spec_tag = PolicyFlags(memory_dependence_speculation=True).tag()
        results = run_variants(
            runner,
            {("I", False): dict(model_name="I"),
             ("I", True): dict(model_name="I", policy_tag=spec_tag),
             ("VII", False): dict(model_name="VII"),
             ("VII", True): dict(model_name="VII", policy_tag=spec_tag)},
            suite, instructions=instructions, warmup=warmup,
        )
        return {key: result.am_ipc for key, result in results.items()}

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
