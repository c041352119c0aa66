"""Harness profiler: spans, Chrome-trace export, runner integration."""

from repro.harness import ExperimentPlan, ExperimentRunner, ResultCache
from repro.harness.profiling import (
    NULL_PROFILER,
    HarnessProfiler,
    make_profiler,
)
from repro.telemetry import validate_chrome_trace


class TestHarnessProfiler:
    def test_span_records_complete_event(self):
        prof = HarnessProfiler()
        with prof.span("work", plan="p1"):
            pass
        (event,) = prof.events
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["dur"] >= 0
        assert event["args"] == {"plan": "p1"}

    def test_instant(self):
        prof = HarnessProfiler()
        prof.instant("cache.hit", category="cache")
        (event,) = prof.events
        assert event["ph"] == "i"
        assert event["cat"] == "cache"

    def test_span_closes_on_exception(self):
        prof = HarnessProfiler()
        try:
            with prof.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [e["name"] for e in prof.events] == ["failing"]

    def test_trace_validates_and_sorts(self):
        prof = HarnessProfiler()
        with prof.span("outer"):
            prof.instant("marker")
        trace = prof.chrome_trace()
        assert validate_chrome_trace(trace) == []
        stamps = [e["ts"] for e in trace["traceEvents"]]
        assert stamps == sorted(stamps)
        assert trace["otherData"]["source"] == "repro harness profiler"

    def test_write(self, tmp_path):
        prof = HarnessProfiler()
        prof.instant("x")
        path = prof.write(tmp_path / "sub" / "trace.json")
        assert path.exists()

    def test_summary_orders_by_total_time(self):
        prof = HarnessProfiler()
        prof.complete("fast", 0.0, 10.0)
        prof.complete("slow", 0.0, 500.0)
        prof.complete("slow", 500.0, 500.0)
        summary = prof.summary()
        assert summary.index("slow x2") < summary.index("fast x1")

    def test_disabled_profiler_records_nothing(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.span("x"):
            NULL_PROFILER.instant("y")
        NULL_PROFILER.complete("z", 0.0, 1.0)
        assert NULL_PROFILER.events == []

    def test_make_profiler(self):
        assert make_profiler(False) is None
        assert make_profiler(True).enabled is True


class TestRunnerIntegration:
    def _plan(self):
        return ExperimentPlan(
            model_name="I", benchmark="gzip",
            instructions=300, warmup=100,
        )

    def test_run_records_cache_and_run_spans(self, tmp_path):
        prof = HarnessProfiler()
        runner = ExperimentRunner(
            cache=ResultCache(tmp_path), verbose=False, profiler=prof,
        )
        runner.run(self._plan())
        names = [e["name"] for e in prof.events]
        assert "cache.load" in names
        assert "cache.miss" in names
        assert "run.execute" in names
        assert "cache.store" in names
        # Second invocation hits the cache.
        runner.run(self._plan())
        assert "cache.hit" in [e["name"] for e in prof.events]

    def test_sweep_span_wraps_run_many(self, tmp_path):
        prof = HarnessProfiler()
        runner = ExperimentRunner(
            cache=ResultCache(tmp_path), verbose=False, profiler=prof,
        )
        runner.run_many([self._plan()])
        sweep = [e for e in prof.events if e["name"] == "sweep"]
        assert len(sweep) == 1
        assert sweep[0]["args"]["executed"] == 1
        assert validate_chrome_trace(prof.chrome_trace()) == []

    def test_worker_pool_spans(self, tmp_path):
        prof = HarnessProfiler()
        runner = ExperimentRunner(
            cache=ResultCache(tmp_path), verbose=False, workers=2,
            profiler=prof,
        )
        plans = [
            ExperimentPlan(model_name=name, benchmark="gzip",
                           instructions=300, warmup=100)
            for name in ("I", "II", "III", "IV")
        ]
        runner.run_many(plans)
        # One launch-to-exit span per worker process, not per plan...
        workers = [e for e in prof.events if e["cat"] == "worker"]
        assert [e["name"] for e in workers] == ["worker", "worker"]
        assert all(e["args"]["outcome"] == "exit" for e in workers)
        assert sum(e["args"]["plans"] for e in workers) == len(plans)
        assert len({e["args"]["pid"] for e in workers}) == 2
        # ...and one run.execute span per plan, inside its worker's.
        runs = [e for e in prof.events if e["name"] == "run.execute"]
        assert sorted(e["args"]["plan"] for e in runs) == sorted(
            p.describe() for p in plans)
        assert all(e["args"]["outcome"] == "ok" for e in runs)
        spans = {e["args"]["pid"]: e for e in workers}
        for run in runs:
            worker = spans[run["args"]["pid"]]
            assert worker["ts"] <= run["ts"]
            assert run["ts"] + run["dur"] <= worker["ts"] + worker["dur"]
        assert validate_chrome_trace(prof.chrome_trace()) == []

    def test_profiler_default_is_null(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        assert runner.profiler is NULL_PROFILER
        runner.run(self._plan())  # no profiler errors on the default path
