"""Future-work extension benches (Section 7 of the paper).

* Transmission-line L-Wires: "performance and energy improvements can be
  higher if transmission lines become a cost-effective option" -- at
  doubled RC latencies, time-of-flight L-Wires keep their 1-cycle reach.
* Frequent-value compaction: "other forms of data compaction might also
  be possible" -- wide values in a replicated 8-entry frequent-value
  table travel as L-Wire indices.
"""

from dataclasses import replace

from conftest import publish, run_variants

from repro.harness import ExperimentRunner, render_table
from repro.interconnect.selection import PolicyFlags


def test_transmission_line_lwires(benchmark, runner: ExperimentRunner,
                                  bench_suite, instructions, warmup,
                                  results_dir):
    """Model VII at 2x wire latencies, RC vs transmission-line L-Wires."""
    suite = bench_suite[:8]

    def compute():
        tl_tag = PolicyFlags(transmission_line_lwires=True).tag()
        results = run_variants(
            runner,
            {False: dict(model_name="VII"),
             True: dict(model_name="VII", policy_tag=tl_tag)},
            suite, instructions=instructions, warmup=warmup,
            latency_scale=2.0,
        )
        return {tl: result.am_ipc for tl, result in results.items()}

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    gain = (rows[True] / rows[False] - 1) * 100
    publish(results_dir, "transmission_line_lwires", render_table(
        ["L-Wire implementation", "AM IPC (2x wire latency)"],
        [["RC repeated wires", f"{rows[False]:.3f}"],
         ["transmission lines", f"{rows[True]:.3f} ({gain:+.1f}%)"]],
        title="Transmission-line L-Wires under wire-constrained scaling "
              "(paper: 'improvements can be higher')",
    ))
    assert rows[True] >= rows[False] * 0.995


def test_frequent_value_compaction(benchmark, runner: ExperimentRunner,
                                   bench_suite, instructions, warmup,
                                   results_dir):
    """Model VII with and without frequent-value L-Wire encoding."""
    suite = [b for b in bench_suite
             if b in ("gzip", "crafty", "parser", "gap", "vpr", "bzip2",
                      "twolf", "vortex")] or list(bench_suite)[:4]

    def compute():
        fv_tag = replace(PolicyFlags(), lwire_frequent_value=True).tag()
        results = run_variants(
            runner,
            {"base": dict(model_name="VII"),
             "fv": dict(model_name="VII", policy_tag=fv_tag)},
            suite, instructions=instructions, warmup=warmup,
        )
        return results["base"], results["fv"]

    base, fv = benchmark.pedantic(compute, rounds=1, iterations=1)
    gain = (fv.am_ipc / base.am_ipc - 1) * 100
    publish(results_dir, "frequent_values", render_table(
        ["Configuration", "AM IPC (int suite)"],
        [["Model VII (narrow only)", f"{base.am_ipc:.3f}"],
         ["Model VII + frequent values",
          f"{fv.am_ipc:.3f} ({gain:+.1f}%)"]],
        title="Frequent-value compaction extension (Yang et al. style "
              "encoding on L-Wires)",
    ))
    # The extension must not hurt; gains are workload dependent.
    assert fv.am_ipc >= base.am_ipc * 0.99
