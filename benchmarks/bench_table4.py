"""Regenerates Table 4: Models I-X on the 16-cluster hierarchical system.

Shape targets (paper): the wire-constrained 16-cluster machine rewards
L-Wires more than the 4-cluster one; heterogeneous mixes hold the best
ED^2 (paper: VII/IX at 88.7, an 11% reduction).
"""

from conftest import publish

from repro.harness.table4 import render_table4, run_table4


def test_table4(benchmark, runner, bench_suite, base, results_dir):
    result = benchmark.pedantic(
        run_table4,
        args=(runner, base, bench_suite),
        rounds=1, iterations=1,
    )
    publish(results_dir, "table4", render_table4(result))
    r = {m.model: m for m in result.rows}
    if len(bench_suite) < 12:
        return  # ordering checks need the full suite's averaging

    # L-Wires help the 16-cluster system (VII vs I, IX vs IV).
    assert r["VII"].am_ipc > r["I"].am_ipc
    assert r["IX"].am_ipc >= r["IV"].am_ipc * 0.99
    # The best ED^2 belongs to a heterogeneous interconnect and beats
    # the baseline clearly (paper: -11%).
    best = result.best_ed2(0.20)
    assert best.model not in ("I", "II", "IV", "VIII")
    assert best.ed2(0.20) < 97.0
    # Homogeneous PW loses ED^2 on a latency-sensitive machine.
    assert r["II"].ed2(0.20) > best.ed2(0.20)
