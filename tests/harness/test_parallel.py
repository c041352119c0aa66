"""Determinism of the parallel runner.

Parallel sweeps are only trustworthy if a plan's outcome is independent
of *how* it was executed: serial vs. process-pool, cold vs. warm cache.
These tests compare full :class:`BenchmarkRun` values (every field,
including the ``extra`` stat tuples) across execution strategies.
"""

import pytest

from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache

#: Small but non-trivial window: long enough to exercise redirects,
#: LSQ disambiguation and narrow-operand traffic.
WINDOW = dict(instructions=500, warmup=120)

PLANS = [
    ExperimentPlan("I", "gzip", **WINDOW),
    ExperimentPlan("VII", "gzip", **WINDOW),
    ExperimentPlan("VII", "mesa", **WINDOW),
    ExperimentPlan("I", "mesa", num_clusters=16, **WINDOW),
    ExperimentPlan("II", "art", latency_scale=2.0, **WINDOW),
]


def run_all(tmp_path, workers):
    runner = ExperimentRunner(cache=ResultCache(tmp_path), verbose=False,
                              workers=workers)
    return runner, runner.run_many(PLANS)


class TestDeterminism:
    def test_serial_equals_parallel(self, tmp_path):
        _, serial = run_all(tmp_path / "serial", workers=1)
        runner, parallel = run_all(tmp_path / "parallel", workers=4)
        assert runner.last_summary.executed == len(PLANS)
        for plan in PLANS:
            # Frozen-dataclass equality covers every field, including
            # the full extra stats tuple -- bit-identical, not "close".
            assert serial[plan] == parallel[plan], plan.describe()

    def test_cold_equals_warm_cache(self, tmp_path):
        runner, cold = run_all(tmp_path, workers=4)
        assert runner.executed == len(PLANS)
        rerun, warm = run_all(tmp_path, workers=4)
        assert rerun.executed == 0
        assert rerun.cache_hits == len(PLANS)
        for plan in PLANS:
            assert cold[plan] == warm[plan], plan.describe()

    def test_single_plan_run_matches_run_many(self, tmp_path):
        plan = PLANS[0]
        solo = ExperimentRunner(cache=ResultCache(tmp_path / "solo"),
                                verbose=False).run(plan)
        _, batch = run_all(tmp_path / "batch", workers=4)
        assert solo == batch[plan]

    def test_repeated_execution_is_reproducible(self, tmp_path):
        # Same plan simulated twice with no cache at all: the simulator
        # itself must be deterministic, not just the cache layer.
        runner = ExperimentRunner(
            cache=ResultCache(tmp_path, enabled=False), verbose=False)
        plan = ExperimentPlan("VII", "gzip", **WINDOW)
        assert runner.run(plan) == runner.run(plan)
        assert runner.executed == 2


class TestTable3Sweep:
    def test_table3_parallel_sweep_matches_serial(self, tmp_path):
        # The acceptance bar for the parallel backend: a cold-cache
        # Table 3 sweep with workers=4 is byte-identical to serial.
        from repro.harness.table3 import run_table3

        base = ExperimentPlan("I", "gzip", instructions=400, warmup=100)
        benchmarks = ("gzip", "art")
        serial_runner = ExperimentRunner(
            cache=ResultCache(tmp_path / "serial"), verbose=False)
        serial = run_table3(serial_runner, base, benchmarks)
        parallel_runner = ExperimentRunner(
            cache=ResultCache(tmp_path / "parallel"), verbose=False,
            workers=4)
        parallel = run_table3(parallel_runner, base, benchmarks)
        assert parallel_runner.last_summary.executed == 20  # 10 models x 2
        assert serial.rows == parallel.rows


class TestParallelCacheIntegrity:
    def test_parallel_sweep_leaves_only_valid_json(self, tmp_path):
        import json

        runner, _ = run_all(tmp_path, workers=4)
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert len(files) == len(PLANS)
        for path in files:
            assert path.suffix == ".json"
            # Entries are sharded two levels deep by key prefix.
            assert path.parent.parent.parent == tmp_path
            assert path.name.startswith(path.parent.parent.name
                                        + path.parent.name)
            json.loads(path.read_text())  # every file parses completely

    def test_flag_override_models_cross_process(self, tmp_path):
        # Policy-flag ablations reach the workers inside the plan.
        from repro.harness import run_variants
        from repro.interconnect.selection import PolicyFlags

        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False, workers=2)
        narrow_off = PolicyFlags(lwire_narrow=False).tag()
        results = run_variants(
            runner, ExperimentPlan("VII", "gzip", **WINDOW),
            {"ablated": dict(policy_tag=narrow_off), "stock": {}},
            ("gzip", "mesa"),
        )
        ablated, stock = results["ablated"], results["stock"]
        assert runner.executed == 4
        # The flags must actually reach the worker processes: with
        # narrow-operand steering off, VII behaves differently.
        assert ablated.runs != stock.runs
