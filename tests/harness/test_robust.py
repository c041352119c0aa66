"""Crash isolation of the sweep harness: timeouts, retries, manifests."""

import os
import time
import types

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.runner import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    SweepError,
    SweepReport,
)

WINDOW = dict(instructions=300, warmup=80)


def fake_run(plan):
    return BenchmarkRun(
        benchmark=plan.benchmark, instructions=plan.instructions,
        cycles=plan.instructions * 2, interconnect_dynamic=1.0,
        interconnect_leakage=1.0,
    )


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("verbose", False)
    return ExperimentRunner(cache=ResultCache(tmp_path), **kwargs)


@pytest.fixture
def scripted_execute(monkeypatch, tmp_path):
    """Replace the simulator with a scriptable stand-in.

    Behaviour is keyed on the plan's benchmark name: ``hang`` sleeps
    forever, ``die`` kills the worker process outright, ``raise`` raises,
    ``flaky`` crashes on the first attempt only (a marker file on disk
    carries state across worker processes), anything else returns a tiny
    result instantly.
    """
    marker = tmp_path / "flaky-already-crashed"

    def execute(plan):
        if plan.benchmark == "hang":
            time.sleep(60)
        if plan.benchmark == "die":
            os._exit(3)
        if plan.benchmark == "raise":
            raise ValueError("simulated simulator bug")
        if plan.benchmark == "flaky" and not marker.exists():
            marker.write_text("crashed once")
            os._exit(3)
        return fake_run(plan), 0.01

    monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
    return execute


class TestTimeouts:
    def test_hung_worker_killed_others_survive(self, tmp_path,
                                               scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=0.5)
        plans = [
            ExperimentPlan("I", "gzip", **WINDOW),
            ExperimentPlan("I", "hang", **WINDOW),
            ExperimentPlan("I", "mesa", **WINDOW),
        ]
        report = runner.run_many_report(plans)
        assert not report.ok
        assert sorted(r.benchmark for r in report.results.values()) == [
            "gzip", "mesa"]
        (failure,) = report.failures
        assert failure.reason == "timeout"
        assert failure.plan.benchmark == "hang"
        assert failure.attempts == 1
        assert "0.5" in failure.detail
        assert report.summary.failed == 1
        assert "FAILED" in report.summary.render()
        assert "timeout" in report.manifest()

    def test_run_many_raises_sweep_error_with_partial_results(
            self, tmp_path, scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=0.5)
        plans = [
            ExperimentPlan("I", "gzip", **WINDOW),
            ExperimentPlan("I", "hang", **WINDOW),
        ]
        with pytest.raises(SweepError) as excinfo:
            runner.run_many(plans)
        report = excinfo.value.report
        assert isinstance(report, SweepReport)
        assert [r.benchmark for r in report.results.values()] == ["gzip"]
        assert "hang" in str(excinfo.value)


class TestCrashes:
    def test_dead_worker_detected(self, tmp_path, scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=10)
        plans = [
            ExperimentPlan("I", "die", **WINDOW),
            ExperimentPlan("I", "gzip", **WINDOW),
        ]
        report = runner.run_many_report(plans)
        (failure,) = report.failures
        assert failure.reason == "crash"
        assert "exit code 3" in failure.detail
        assert [r.benchmark for r in report.results.values()] == ["gzip"]

    def test_crash_retried_until_success(self, tmp_path, scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=10,
                             max_retries=2)
        plan = ExperimentPlan("I", "flaky", **WINDOW)
        report = runner.run_many_report([plan])
        assert report.ok
        assert report.results[plan].benchmark == "flaky"

    def test_retries_exhausted_reports_attempts(self, tmp_path,
                                                scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=10,
                             max_retries=2)
        plan = ExperimentPlan("I", "die", **WINDOW)
        report = runner.run_many_report([plan])
        (failure,) = report.failures
        assert failure.reason == "crash"
        assert failure.attempts == 3  # initial + 2 retries
        assert "3 attempt" in failure.describe()


class TestExitRace:
    def test_result_sent_just_before_exit_is_not_a_crash(self, tmp_path,
                                                          monkeypatch):
        """A worker that sends its result and exits between the
        parent's liveness check and its pipe poll delivered the result.

        Scripted with a stub process/pipe pair speaking the worker
        protocol: the parent sends the job, the first poll finds the
        pipe empty, and the worker answers and dies right after it, so
        from then on the process is dead and the pipe holds the result.
        The dead worker is then idle, so shutting it down is no crash.
        """
        plan = ExperimentPlan("I", "gzip", **WINDOW)
        result = fake_run(plan)
        state = {"done": False, "sent": []}

        class StubPipe:
            def send(self, message):
                state["sent"].append(message)

            def poll(self, timeout=None):
                ready = state["done"]
                state["done"] = True  # the worker answers and dies now
                return ready

            def recv(self):
                return ("ok", result, 0.01)

            def close(self):
                pass

        class StubProcess:
            exitcode = 0
            pid = 4242

            def __init__(self, target, args):
                pass

            def start(self):
                pass

            def is_alive(self):
                return not state["done"]

            def join(self, timeout=None):
                pass

            def terminate(self):
                raise AssertionError("a finished worker was killed")

        class Context:
            Process = StubProcess

            @staticmethod
            def Pipe():
                return StubPipe(), StubPipe()

        monkeypatch.setattr("repro.harness.workers.multiprocessing",
                            types.SimpleNamespace(
                                get_context=Context,
                                connection=types.SimpleNamespace(
                                    wait=lambda conns, timeout: [])))
        runner = make_runner(tmp_path, workers=2, run_timeout=10)
        report = runner.run_many_report([plan])
        assert report.failures == ()
        assert report.results[plan] == result
        assert state["sent"] == [plan, None]  # job, then sentinel


class TestErrors:
    def test_simulator_exception_not_retried(self, tmp_path,
                                             scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=10,
                             max_retries=3)
        plan = ExperimentPlan("I", "raise", **WINDOW)
        report = runner.run_many_report([plan])
        (failure,) = report.failures
        assert failure.reason == "error"
        assert failure.attempts == 1  # exceptions are deterministic
        assert "simulated simulator bug" in failure.detail

    def test_serial_path_reports_errors_too(self, tmp_path, monkeypatch):
        def execute(plan):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
        runner = make_runner(tmp_path)
        plan = ExperimentPlan("I", "gzip", **WINDOW)
        report = runner.run_many_report([plan])
        (failure,) = report.failures
        assert failure.reason == "error"
        assert "boom" in failure.detail


class TestBookkeeping:
    def test_failed_runs_never_cached(self, tmp_path, scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=0.5)
        plans = [
            ExperimentPlan("I", "hang", **WINDOW),
            ExperimentPlan("I", "gzip", **WINDOW),
        ]
        runner.run_many_report(plans)
        cached = [p for p in plans if runner.cache.load(p) is not None]
        assert [p.benchmark for p in cached] == ["gzip"]

    def test_last_report_set(self, tmp_path, scripted_execute):
        runner = make_runner(tmp_path, workers=2, run_timeout=10)
        plan = ExperimentPlan("I", "gzip", **WINDOW)
        result = runner.run_many([plan])
        assert runner.last_report is not None
        assert runner.last_report.ok
        assert runner.last_report.results[plan] == result[plan]

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            make_runner(tmp_path, workers=0)
        with pytest.raises(ValueError, match="workers"):
            make_runner(tmp_path, workers=-3)
        with pytest.raises(ValueError, match="run_timeout"):
            make_runner(tmp_path, run_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            make_runner(tmp_path, max_retries=-1)

    def test_timeout_forces_isolation_even_single_worker(
            self, tmp_path, scripted_execute):
        # workers=1 with a timeout must still kill a hung run.
        runner = make_runner(tmp_path, run_timeout=0.5)
        plan = ExperimentPlan("I", "hang", **WINDOW)
        start = time.monotonic()
        report = runner.run_many_report([plan])
        assert time.monotonic() - start < 30
        assert not report.ok
        assert report.failures[0].reason == "timeout"

    def test_real_simulation_passes_through_isolated_pool(self, tmp_path):
        # No monkeypatching: the pipe really carries BenchmarkRun values.
        runner = make_runner(tmp_path, run_timeout=300)
        plan = ExperimentPlan("I", "gzip", **WINDOW)
        report = runner.run_many_report([plan])
        assert report.ok
        assert report.results[plan].instructions >= WINDOW["instructions"]
