"""SweepReport JSON round-trip and crash-resume from a manifest."""

import json

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.runner import (
    REPORT_SCHEMA_VERSION,
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    RunFailure,
    SweepReport,
    SweepSummary,
)

WINDOW = dict(instructions=300, warmup=80)


def plan_for(benchmark, **overrides):
    kwargs = dict(WINDOW)
    kwargs.update(overrides)
    return ExperimentPlan("I", benchmark, **kwargs)


def run_for(plan):
    return BenchmarkRun(
        benchmark=plan.benchmark, instructions=plan.instructions,
        cycles=plan.instructions * 2, interconnect_dynamic=10.0,
        interconnect_leakage=3.0, extra=(("redirects", 2.0),),
    )


def make_report():
    done = plan_for("gzip")
    failed = plan_for("mesa")
    return SweepReport(
        results={done: run_for(done)},
        failures=(RunFailure(plan=failed, reason="crash",
                             detail="worker died (exit 3)",
                             attempts=2),),
        summary=SweepSummary(requested=2, unique=2, executed=1,
                             cache_hits=0, total_duration=0.5,
                             max_duration=0.5, failed=1),
    )


class TestRoundTrip:
    def test_report_round_trips_through_json_text(self):
        report = make_report()
        clone = SweepReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert clone.summary == report.summary
        assert clone.failures == report.failures
        assert set(clone.results) == set(report.results)
        (plan,) = clone.results
        assert clone.results[plan] == report.results[plan]
        assert clone.manifest() == report.manifest()

    def test_serialization_is_completion_order_independent(self):
        """Two sweeps that finished in different orders must produce
        byte-identical manifests (results sort by cache key)."""
        a, b = plan_for("gzip"), plan_for("mesa")
        summary = SweepSummary(requested=2, unique=2, executed=2,
                               cache_hits=0, total_duration=1.0,
                               max_duration=0.5)
        forward = SweepReport(results={a: run_for(a), b: run_for(b)},
                              failures=(), summary=summary)
        backward = SweepReport(results={b: run_for(b), a: run_for(a)},
                               failures=(), summary=summary)
        assert json.dumps(forward.to_json(), sort_keys=True) == \
            json.dumps(backward.to_json(), sort_keys=True)

    def test_plan_round_trips(self):
        plan = plan_for("gzip", seed=7, fault_spec="ber=1e-06")
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan


class TestRejection:
    def test_version_mismatch_is_rejected(self):
        data = make_report().to_json()
        data["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            SweepReport.from_json(data)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("summary"),
        lambda d: d.update(results="nope"),
        lambda d: d["results"][0]["run"].pop("cycles"),
        lambda d: d["results"][0]["run"].update(cycles="many"),
        lambda d: d["failures"][0].pop("reason"),
        lambda d: d["failures"][0]["plan"].update(model_name=7),
        lambda d: d["summary"].update(executed="lots"),
    ])
    def test_malformed_payloads_are_rejected(self, mutate):
        data = make_report().to_json()
        mutate(data)
        with pytest.raises(ValueError):
            SweepReport.from_json(data)

    @pytest.mark.parametrize("bad", [None, [], "x", 3])
    def test_non_object_payloads_are_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepReport.from_json(bad)


class TestResumeFromManifest:
    def test_crashed_sweep_reloads_and_resumes(self, tmp_path,
                                               monkeypatch):
        """The resumability contract end to end: serialize a failed
        sweep, reload it in a 'new process', rerun only the
        unfinished plans, and end with a clean merged report."""
        flaky = tmp_path / "flaky-crashed-once"

        def execute(plan):
            if plan.benchmark == "mesa" and not flaky.exists():
                import os

                flaky.write_text("crashed")
                os._exit(3)
            return run_for(plan), 0.01

        monkeypatch.setattr("repro.harness.runner._execute_plan",
                            execute)
        plans = [plan_for("gzip"), plan_for("mesa")]
        runner = ExperimentRunner(cache=ResultCache(tmp_path / "c"),
                                  verbose=False, workers=2, run_timeout=10.0)
        first = runner.run_many_report(plans)
        assert not first.ok
        assert [p.benchmark for p in first.unfinished_plans] == ["mesa"]

        # Simulate the crash/restart: only the JSON text survives.
        text = json.dumps(first.to_json())
        reloaded = SweepReport.from_json(json.loads(text))
        assert reloaded.unfinished_plans == first.unfinished_plans

        second = ExperimentRunner(cache=ResultCache(tmp_path / "c"),
                                  verbose=False, workers=2, run_timeout=10.0)
        resumed = second.run_many_report(list(reloaded.unfinished_plans))
        assert resumed.ok
        assert resumed.summary.executed == 1  # only the missing plan
        merged = dict(reloaded.results)
        merged.update(resumed.results)
        assert sorted(p.benchmark for p in merged) == ["gzip", "mesa"]

    def test_clean_report_has_no_unfinished_plans(self):
        report = SweepReport(
            results={}, failures=(),
            summary=SweepSummary(requested=0, unique=0, executed=0,
                                 cache_hits=0, total_duration=0.0,
                                 max_duration=0.0),
        )
        assert report.unfinished_plans == ()
        assert report.manifest() == ""
        assert report.ok
