"""Ablation: the three PW-Wire steering criteria (our extension).

Section 4 steers (1) operands already ready at dispatch, (2) store data,
and (3) overflow under load imbalance onto PW-Wires.  This bench runs
Model V (144 B + 288 PW) with each criterion disabled to show its share
of the energy savings, and the IPC cost of each.
"""

from dataclasses import replace

from conftest import publish, run_variants

from repro.harness import ExperimentRunner, render_table
from repro.interconnect.selection import PolicyFlags

VARIANTS = (
    ("default", PolicyFlags()),
    ("no_ready_operand", replace(PolicyFlags(), pw_ready_operand=False)),
    ("no_store_data", replace(PolicyFlags(), pw_store_data=False)),
    ("no_load_balance", replace(PolicyFlags(), pw_load_balance=False)),
    ("all_off", replace(PolicyFlags(), pw_ready_operand=False,
                        pw_store_data=False, pw_load_balance=False)),
)


def test_pw_ablation(benchmark, runner: ExperimentRunner, bench_suite,
                     instructions, warmup, results_dir):
    def compute():
        return run_variants(
            runner,
            {tag: dict(model_name="V", policy_tag=flags.tag())
             for tag, flags in VARIANTS},
            bench_suite, instructions=instructions, warmup=warmup,
        )

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    base = results["all_off"]
    rows = []
    for tag, _ in VARIANTS:
        r = results[tag]
        rows.append([
            tag, f"{r.am_ipc:.3f}",
            f"{100 * r.total_dynamic / base.total_dynamic:.0f}",
        ])
    publish(results_dir, "ablation_pw", render_table(
        ["PW steering variant", "AM IPC", "rel dyn energy"],
        rows,
        title=("PW-Wire criterion ablation on Model V (paper: 36% of "
               "transfers moved to PW with ~1% IPC cost)"),
    ))

    if len(bench_suite) < 12:
        return  # ordering checks need the full suite's averaging
    # Steering traffic to PW saves dynamic energy at minimal IPC cost.
    on = results["default"]
    assert on.total_dynamic < base.total_dynamic * 0.95
    assert on.am_ipc > base.am_ipc * 0.95
    # Store data is a large share of PW-eligible traffic.
    no_store = results["no_store_data"]
    assert no_store.total_dynamic > on.total_dynamic
