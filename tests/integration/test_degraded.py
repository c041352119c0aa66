"""End-to-end degraded-mode runs: faults through the full simulator.

The acceptance bar of the fault-injection work: a permanent L-Wire
plane kill completes end-to-end with non-zero degradation counters and
an IPC no better than the fault-free run, and a fixed-seed faulted run
is bit-deterministic regardless of worker count.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import simulate_benchmark
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache

WINDOW = dict(instructions=500, warmup=120)


@pytest.fixture(scope="module")
def faultfree_run():
    return simulate_benchmark(model("X").config, "gzip", **WINDOW)


class TestLWireKill:
    def test_completes_with_degradation_and_no_speedup(self, faultfree_run):
        degraded = simulate_benchmark(
            model("X").config, "gzip", fault_spec="kill=L@*@200", **WINDOW,
        )
        extra = degraded.extra_stats()
        assert extra["planes_killed"] > 0
        assert extra["degraded_selections"] > 0
        assert degraded.ipc <= faultfree_run.ipc
        assert degraded.instructions >= WINDOW["instructions"]

    def test_faultfree_run_reports_zero_degradation(self, faultfree_run):
        extra = faultfree_run.extra_stats()
        for key in ("retransmissions", "corrupted_segments",
                    "retry_escalations", "degraded_reroutes",
                    "degraded_selections", "planes_killed"):
            assert extra[key] == 0.0

    def test_null_fault_spec_equals_no_fault_spec(self, faultfree_run):
        explicit = simulate_benchmark(model("X").config, "gzip",
                                      fault_spec="", **WINDOW)
        assert explicit == faultfree_run


class TestTransientErrors:
    def test_ber_produces_retransmissions(self):
        run = simulate_benchmark(
            model("X").config, "gzip", fault_spec="ber=1e-4", **WINDOW,
        )
        extra = run.extra_stats()
        assert extra["corrupted_segments"] > 0
        assert extra["retransmissions"] > 0
        assert extra["planes_killed"] == 0

    def test_same_seed_is_bit_deterministic(self):
        a = simulate_benchmark(model("X").config, "gzip",
                               fault_spec="ber=1e-5", **WINDOW)
        b = simulate_benchmark(model("X").config, "gzip",
                               fault_spec="ber=1e-5", **WINDOW)
        assert a == b

    def test_seed_changes_fault_pattern(self):
        a = simulate_benchmark(model("X").config, "gzip", seed=1,
                               fault_spec="ber=1e-4", **WINDOW)
        b = simulate_benchmark(model("X").config, "gzip", seed=2,
                               fault_spec="ber=1e-4", **WINDOW)
        assert a != b


class TestWorkerCountDeterminism:
    def test_serial_equals_parallel_under_faults(self, tmp_path):
        plans = [
            ExperimentPlan("X", "gzip", fault_spec="kill=L@*@200",
                           **WINDOW),
            ExperimentPlan("X", "gzip", fault_spec="ber=1e-5", **WINDOW),
            ExperimentPlan("X", "mesa", fault_spec="kill=B@*@100",
                           **WINDOW),
            ExperimentPlan("X", "art", **WINDOW),
        ]
        serial_runner = ExperimentRunner(
            cache=ResultCache(tmp_path / "serial"), verbose=False)
        serial = serial_runner.run_many(plans, workers=1)
        parallel_runner = ExperimentRunner(
            cache=ResultCache(tmp_path / "parallel"), verbose=False)
        parallel = parallel_runner.run_many(plans, workers=4)
        assert parallel_runner.last_summary.executed == len(plans)
        for plan in plans:
            assert serial[plan] == parallel[plan], plan.describe()

    def test_fault_spec_separates_cache_entries(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        healthy = ExperimentPlan("X", "gzip", **WINDOW)
        faulted = ExperimentPlan("X", "gzip", fault_spec="kill=L@*@200",
                                 **WINDOW)
        assert healthy.cache_key() != faulted.cache_key()
        runs = runner.run_many([healthy, faulted])
        assert runner.executed == 2
        assert runs[healthy] != runs[faulted]
        assert "fault_spec=kill=L@*@200" in faulted.describe()


class TestFaultSweep:
    def test_faultsweep_table_renders(self, tmp_path):
        from repro.harness.axissweep import (
            FAULT_AXIS,
            render_axis_sweep,
            run_axis_sweep,
        )

        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        rows = (("fault-free", ""), ("L kill", "kill=L@*@150"))
        result = run_axis_sweep(
            runner, FAULT_AXIS, ExperimentPlan("X", "gzip", **WINDOW),
            rows=rows, benchmarks=("gzip",),
        )
        assert result.report.ok
        text = render_axis_sweep(result)
        assert "L kill" in text and "fault-free" in text
        assert "killed" in text
        # The kill scenario must report dead planes in the table.
        kill_line = next(line for line in text.splitlines()
                         if "L kill" in line)
        assert kill_line.rstrip().split("|")[-1].strip() != "0"
