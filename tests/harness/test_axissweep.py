"""The axis-sweep driver behind ``repro faults`` and ``repro power``.

The simulator is replaced by an instant stand-in whose numbers depend
on the plan's fault and gating fields, so every column can be checked
exactly.
"""

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.axissweep import (
    DEFAULT_BENCHMARKS,
    FAULT_AXIS,
    GATING_AXIS,
    render_axis_sweep,
    run_axis_sweep,
)
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache

BASE = ExperimentPlan("X", "gzip", instructions=300, warmup=80)
BROKEN = "kill=B@*@0"


@pytest.fixture
def executed(monkeypatch):
    """Every plan the stand-in simulator ran, in order."""
    plans = []

    def execute(plan, interconnect_model=None):
        plans.append(plan)
        if plan.fault_spec == BROKEN:
            raise RuntimeError("simulated simulator bug")
        faulted = bool(plan.fault_spec)
        gated = bool(plan.gating_policy)
        return BenchmarkRun(
            benchmark=plan.benchmark, instructions=1000,
            cycles=2000 if faulted else 1000,
            interconnect_dynamic=30.0 if faulted else 20.0,
            interconnect_leakage=10.0 if gated else 20.0,
            extra=(("retransmissions", 4.0 if faulted else 0.0),
                   ("planes_killed", 0.0),
                   ("plane_wakes", 5.0 if gated else 0.0),
                   ("gated_wire_cycle_share", 0.25 if gated else 0.0)),
        ), 0.01

    monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
    return plans


def runner(tmp_path):
    return ExperimentRunner(cache=ResultCache(tmp_path), verbose=False)


def cells(text, label):
    """The stripped cells of the table row labelled ``label``."""
    for line in text.splitlines():
        row = [cell.strip() for cell in line.split("|")]
        if row[0] == label:
            return row
    raise AssertionError(f"no row {label!r} in:\n{text}")


class TestPlans:
    def test_each_row_sets_the_swept_field_and_keeps_the_rest(
            self, tmp_path, executed):
        base = ExperimentPlan("X", "gzip", instructions=300, warmup=80,
                              seed=7, gating_policy="idle:drowsy=8,gate=32")
        rows = (("fault-free", ""), ("ber", "ber=1e-6"))
        run_axis_sweep(runner(tmp_path), FAULT_AXIS, base, rows=rows,
                       benchmarks=("gzip", "art"))
        assert sorted((p.fault_spec, p.benchmark) for p in executed) == [
            ("", "art"), ("", "gzip"),
            ("ber=1e-06", "art"), ("ber=1e-06", "gzip")]
        for plan in executed:
            assert plan.seed == 7
            assert plan.gating_policy == "idle:drowsy=8,gate=32"

    def test_defaults(self, tmp_path, executed):
        result = run_axis_sweep(runner(tmp_path), GATING_AXIS, BASE)
        assert [label for label, _value, _runs in result.rows] == [
            "always-on", "idle 64/256", "idle 16/64", "ewma h=64"]
        assert len(executed) == 4 * len(DEFAULT_BENCHMARKS)
        assert {p.benchmark for p in executed} == set(DEFAULT_BENCHMARKS)

    def test_rows_carry_canonical_values(self, tmp_path, executed):
        rows = (("always-on", "never"), ("idle", "idle:gate=64,drowsy=16"))
        result = run_axis_sweep(runner(tmp_path), GATING_AXIS, BASE,
                                rows=rows, benchmarks=("gzip",))
        assert [value for _label, value, _runs in result.rows] == [
            "", "idle:drowsy=16,gate=64"]


class TestRender:
    def test_fault_table(self, tmp_path, executed):
        rows = (("fault-free", ""), ("ber", "ber=1e-5"))
        text = render_axis_sweep(run_axis_sweep(
            runner(tmp_path), FAULT_AXIS, BASE, rows=rows,
            benchmarks=("gzip", "art")))
        assert text.startswith("Fault-injection degradation sweep, "
                               "model X")
        assert cells(text, "Scenario") == [
            "Scenario", "Fault spec", "IPC", "dIPC", "Energy", "retx",
            "escal", "reroutes", "killed"]
        assert cells(text, "fault-free") == [
            "fault-free", "(none)", "1.0000", "+0.0%", "100", "0", "0",
            "0", "0"]
        # Half the IPC, energy 50/40, four retransmissions per run.
        assert cells(text, "ber") == [
            "ber", "ber=1e-05", "0.5000", "-50.0%", "125", "8", "0", "0",
            "0"]

    def test_gating_table(self, tmp_path, executed):
        rows = (("always-on", ""), ("idle", "idle:drowsy=16,gate=64"))
        base = ExperimentPlan("X", "gzip", instructions=300, warmup=80,
                              fault_spec="ber=1e-5")
        text = render_axis_sweep(run_axis_sweep(
            runner(tmp_path), GATING_AXIS, base, rows=rows,
            benchmarks=("gzip",)))
        assert cells(text, "Scenario") == [
            "Scenario", "Policy", "IPC", "dIPC", "Leakage", "Dynamic",
            "ED2", "wakes", "gated"]
        assert cells(text, "always-on")[2:] == [
            "0.5000", "+0.0%", "100", "100", "100", "0", "0.0%"]
        # Same cycles, leakage halved: energy 40/50 -> ED^2 80.
        assert cells(text, "idle")[2:] == [
            "0.5000", "+0.0%", "50", "100", "80", "5", "25.0%"]

    def test_failed_row_and_manifest(self, tmp_path, executed):
        rows = (("fault-free", ""), ("broken", BROKEN))
        result = run_axis_sweep(runner(tmp_path), FAULT_AXIS, BASE,
                                rows=rows, benchmarks=("gzip",))
        assert not result.report.ok
        text = render_axis_sweep(result)
        assert cells(text, "broken") == [
            "broken", BROKEN, "FAILED", "-", "-", "-", "-", "-", "-"]
        assert "1 run(s) failed:" in text
        assert "simulated simulator bug" in text

    def test_no_baseline_renders_not_available(self, tmp_path, executed):
        rows = (("broken", BROKEN), ("ber", "ber=1e-5"))
        text = render_axis_sweep(run_axis_sweep(
            runner(tmp_path), FAULT_AXIS, BASE, rows=rows,
            benchmarks=("gzip",)))
        assert cells(text, "ber")[2:5] == ["0.5000", "n/a", "n/a"]
