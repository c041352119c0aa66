"""Long-lived sweep workers: reuse, replace-on-crash, clean shutdown.

A crash-isolated sweep forks at most ``workers`` processes for one
``run_many_report`` call and runs plan after plan on them, in trace-key
order.  The stand-in simulator below reports the pid of the worker that
ran each plan, so the tests can see which process did what.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.profiling import HarnessProfiler
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache

WINDOW = dict(instructions=300, warmup=80)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def pid_execute(monkeypatch, tmp_path):
    """A stand-in simulator keyed on the plan's model name.

    ``hang`` sleeps forever, ``flaky`` kills its worker on the first
    attempt only (a marker file carries state across processes), and
    anything else takes 50 ms -- long enough that a crash is noticed
    while plans are still queued -- and reports the worker's pid in
    ``extra``.
    """
    marker = tmp_path / "flaky-already-crashed"

    def execute(plan):
        if plan.model_name == "hang":
            time.sleep(60)
        if plan.model_name == "flaky" and not marker.exists():
            marker.write_text("crashed once")
            os._exit(3)
        time.sleep(0.05)
        run = BenchmarkRun(
            benchmark=plan.benchmark, instructions=plan.instructions,
            cycles=plan.instructions * 2, interconnect_dynamic=1.0,
            interconnect_leakage=1.0, extra=(("pid", os.getpid()),),
        )
        return run, 0.01

    monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
    return execute


def make_runner(tmp_path, **kwargs):
    return ExperimentRunner(cache=ResultCache(tmp_path / "cache"),
                            verbose=False, profiler=HarnessProfiler(),
                            **kwargs)


def pids(report):
    return {run.extra_stats()["pid"] for run in report.results.values()}


def spans(runner, category):
    return [e for e in runner.profiler.events if e["cat"] == category]


def plans_of(models, benchmark="gzip"):
    return [ExperimentPlan(name, benchmark, **WINDOW) for name in models]


class TestReuse:
    def test_one_key_runs_on_exactly_the_pool_size(self, tmp_path,
                                                     pid_execute):
        runner = make_runner(tmp_path)
        plans = plans_of(("I", "II", "III", "IV", "V", "VI"))
        report = runner.run_many_report(plans, workers=2)
        assert report.ok
        assert len(report.results) == 6
        assert len(pids(report)) == 2
        workers = spans(runner, "worker")
        assert len(workers) == 2
        assert sum(e["args"]["plans"] for e in workers) == 6

    def test_one_worker_runs_every_plan(self, tmp_path, pid_execute):
        runner = make_runner(tmp_path, run_timeout=30)
        report = runner.run_many_report(plans_of(("I", "II", "III")),
                                        workers=1)
        assert report.ok
        assert len(pids(report)) == 1
        assert pids(report) != {os.getpid()}


class TestReplaceOnCrash:
    def test_dead_worker_is_replaced_and_only_its_plan_retried(
            self, tmp_path, pid_execute):
        runner = make_runner(tmp_path, max_retries=1, retry_backoff=0.01)
        plans = plans_of(("flaky", "II", "III", "IV", "V", "VI"))
        report = runner.run_many_report(plans, workers=2)
        assert report.ok
        assert set(report.results) == set(plans)
        workers = spans(runner, "worker")
        assert sorted(e["args"]["outcome"] for e in workers) == [
            "crash", "exit", "exit"]  # one replacement, no more
        (dead,) = [e for e in workers if e["args"]["outcome"] == "crash"]
        assert dead["args"]["pid"] not in pids(report)
        attempts = {}
        for event in spans(runner, "run"):
            attempts.setdefault(event["args"]["plan"], []).append(
                event["args"]["outcome"])
        assert attempts.pop(plans[0].describe()) == ["crash", "ok"]
        assert attempts == {p.describe(): ["ok"] for p in plans[1:]}

    def test_hung_plan_kills_only_its_own_worker(self, tmp_path,
                                                 pid_execute):
        runner = make_runner(tmp_path, run_timeout=0.5)
        plans = plans_of(("I", "hang", "III", "IV"))
        report = runner.run_many_report(plans, workers=2)
        (failure,) = report.failures
        assert failure.plan.model_name == "hang"
        assert failure.reason == "timeout"
        assert len(report.results) == 3
        assert len(pids(report)) == 1  # the survivor ran the rest
        workers = spans(runner, "worker")
        assert sorted(e["args"]["outcome"] for e in workers) == [
            "exit", "timeout"]


class TestShutdown:
    def test_cancel_mid_sweep_terminates_every_worker(self, tmp_path,
                                                      pid_execute):
        runner = make_runner(tmp_path, run_timeout=60)
        plans = (plans_of(("I", "hang"), "gzip")
                 + plans_of(("hang", "V"), "mesa")
                 + plans_of(("hang",), "art"))
        cancel = threading.Event()
        timer = threading.Timer(0.5, cancel.set)
        timer.start()
        try:
            start = time.monotonic()
            report = runner.run_many_report(plans, workers=2,
                                            cancel=cancel)
        finally:
            timer.cancel()
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        assert {f.reason for f in report.failures} == {"cancelled"}
        assert len(report.failures) + len(report.results) == len(plans)
        assert {e["args"]["outcome"] for e in spans(runner, "worker")} == {
            "cancelled"}

    def test_sweeps_do_not_share_workers(self, tmp_path, pid_execute):
        runner = make_runner(tmp_path)
        first = runner.run_many_report(plans_of(("I", "II")), workers=2)
        assert multiprocessing.active_children() == []
        second = runner.run_many_report(plans_of(("III", "IV")),
                                        workers=2)
        assert multiprocessing.active_children() == []
        assert not pids(first) & pids(second)


class TestTraceKeys:
    def test_interleaved_keys_equal_the_serial_sweep(self, tmp_path):
        # Real simulations: a worker that moves to a new trace key drops
        # its memoized trace and must still match in-process results
        # exactly.
        plans = [
            ExperimentPlan(model, benchmark, seed=seed, **WINDOW)
            for model in ("I", "VII")
            for benchmark, seed in (("gzip", 1), ("mesa", 1), ("gzip", 2))
        ]
        serial = ExperimentRunner(cache=ResultCache(tmp_path / "serial"),
                                  verbose=False).run_many(plans, workers=1)
        pooled = make_runner(tmp_path / "pool")
        assert pooled.run_many(plans, workers=2) == serial
        single = make_runner(tmp_path / "single", run_timeout=300)
        assert single.run_many(plans, workers=1) == serial
        # One worker runs the keys back to back, in first-seen order.
        order = [e["args"]["plan"] for e in spans(single, "run")]
        assert order == [p.describe() for p in plans[0::3] + plans[1::3]
                         + plans[2::3]]
