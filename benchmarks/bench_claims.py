"""Regenerates the paper's scalar prose claims (Sections 1, 4, 5.3)."""

from conftest import publish

from repro.harness.claims import render_claims, run_claims


def test_claims(benchmark, runner, bench_suite, base, results_dir):
    claims = benchmark.pedantic(
        run_claims,
        args=(runner, base, bench_suite),
        rounds=1, iterations=1,
    )
    publish(results_dir, "claims", render_claims(claims))
    by_name = {c.name: c for c in claims}
    if len(bench_suite) < 12:
        return  # magnitude checks need the full suite's averaging

    # Doubling inter-cluster latency clearly hurts (paper: -12%).
    assert by_name["latency_doubling_ipc_loss"].measured < -5.0
    # The L-Wire layer helps, and helps *more* when wires are slower
    # (paper: 4.2% -> 7.1%) and on the 16-cluster machine (7.4%).
    fig3 = by_name["figure3_lwire_gain"].measured
    assert fig3 > 0.0
    assert by_name["lwire_gain_2x_latency"].measured > fig3 * 0.8
    assert by_name["lwire_gain_16cl"].measured > 0.0
    # 16 clusters scale single-thread IPC (paper: +17%; our synthetic
    # streams carry less exploitable ILP than real SPEC2k, so this is
    # the weakest shape match -- see EXPERIMENTS.md).
    assert by_name["scaling_4_to_16"].measured > -2.0
    # Narrow traffic share in the paper's ballpark (14%).
    assert 7.0 < by_name["narrow_register_traffic"].measured < 25.0
    # Width predictor quality (paper: 95% coverage, 2% false narrows;
    # our 10^4-instruction windows leave more cold-start misses than the
    # paper's 10^8, lowering measured coverage).
    assert by_name["narrow_predictor_coverage"].measured > 78.0
    assert by_name["narrow_predictor_false"].measured < 6.0
    # False LS-bit dependences below the paper's 9% bound.
    assert by_name["false_dependence_rate"].measured < 9.0
