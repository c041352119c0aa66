"""Ablation: the three L-Wire uses, individually (our extension).

The paper states the cache pipeline, narrow operands and mispredict
signals 'contributed equally to the performance improvement'.  This
bench disables each mechanism in turn on Model VII and reports the gain
attributable to each.
"""

from dataclasses import replace

from conftest import publish, run_variants

from repro.harness import ExperimentRunner, render_table
from repro.interconnect.selection import PolicyFlags

VARIANTS = (
    ("default", PolicyFlags()),
    ("no_partial_address", replace(PolicyFlags(),
                                   lwire_partial_address=False)),
    ("no_narrow", replace(PolicyFlags(), lwire_narrow=False)),
    ("no_mispredict", replace(PolicyFlags(), lwire_mispredict=False)),
    ("all_off", PolicyFlags().without_lwire_uses()),
)


def test_lwire_ablation(benchmark, runner: ExperimentRunner, bench_suite,
                        instructions, warmup, results_dir):
    def compute():
        return run_variants(
            runner,
            {tag: dict(model_name="VII", policy_tag=flags.tag())
             for tag, flags in VARIANTS},
            bench_suite, instructions=instructions, warmup=warmup,
        )

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    off = results["all_off"].am_ipc
    rows = []
    for tag, _ in VARIANTS:
        ipc = results[tag].am_ipc
        rows.append([tag, f"{ipc:.3f}", f"{(ipc / off - 1) * 100:+.2f}%"])
    publish(results_dir, "ablation_lwires", render_table(
        ["L-Wire policy variant", "AM IPC", "vs all-off"],
        rows,
        title=("L-Wire mechanism ablation on Model VII (paper: the three "
               "uses contributed equally)"),
    ))

    if len(bench_suite) < 12:
        return  # ordering checks need the full suite's averaging
    all_on = results["default"].am_ipc
    assert all_on > off  # the mechanisms collectively help
    # Removing any single mechanism keeps some but not all of the gain.
    for tag in ("no_partial_address", "no_narrow", "no_mispredict"):
        assert results[tag].am_ipc <= all_on * 1.005
        assert results[tag].am_ipc >= off * 0.995
