"""Wire-constraint sensitivity sweep (Section 5.3's forward-looking case).

The paper argues the L-Wire layer's value grows as technology becomes
more wire constrained: +4.2% at the Table 2 latencies, +7.1% when all
wire latencies double.  This bench sweeps the latency scale and reports
the baseline slowdown and the L-Wire gain at each point -- the gain must
grow monotonically-ish with wire constraint.
"""

from conftest import publish

from repro.harness import ExperimentRunner, run_variants
from repro.harness.formatting import render_table

SCALES = (1.0, 1.5, 2.0, 3.0)


def test_latency_sweep(benchmark, runner: ExperimentRunner, bench_suite,
                       base, results_dir):
    suite = bench_suite[:10]

    def compute():
        results = run_variants(
            runner, base,
            {(scale, name): dict(model_name=name, latency_scale=scale)
             for scale in SCALES for name in ("I", "VII")},
            suite,
        )
        return {scale: (results[scale, "I"].am_ipc,
                        results[scale, "VII"].am_ipc)
                for scale in SCALES}

    table = benchmark.pedantic(compute, rounds=1, iterations=1)
    base_1x = table[1.0][0]
    rows = []
    gains = []
    for scale in SCALES:
        ipc, lwire = table[scale]
        gain = (lwire / ipc - 1) * 100
        gains.append(gain)
        rows.append([
            f"{scale:.1f}x",
            f"{ipc:.3f} ({(ipc / base_1x - 1) * 100:+.1f}%)",
            f"{lwire:.3f}",
            f"{gain:+.1f}%",
        ])
    publish(results_dir, "latency_sweep", render_table(
        ["Wire latency", "Model I IPC (vs 1x)", "Model VII IPC",
         "L-Wire gain"],
        rows,
        title="Wire-constraint sweep (paper: L-Wire gain 4.2% at 1x -> "
              "7.1% at 2x)",
    ))

    # Baseline IPC falls monotonically as wires slow down.
    bases = [table[s][0] for s in SCALES]
    assert all(a >= b for a, b in zip(bases, bases[1:]))
    if len(bench_suite) < 12:
        return
    # The L-Wire layer helps at every point and helps more at 2x+ than
    # at the nominal latencies (the paper's forward-looking claim).
    assert all(g > 0 for g in gains)
    assert max(gains[2], gains[3]) > gains[0]
