"""Tests for the ``python -m repro`` command-line interface."""

from typing import get_type_hints

import pytest

from repro.__main__ import build_parser, main
from repro.core.metrics import BenchmarkRun
from repro.harness import ExperimentPlan


class TestStaticCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "144 B-Wires" in out
        assert "288 PW-Wires, 36 L-Wires" in out

    def test_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "swim" in out
        assert out.count("\n") >= 23

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "L-Wires" in out and "0.3" in out


class TestRunCommand:
    def test_single_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["run", "--model", "VII", "--benchmark", "gzip",
                     "--instructions", "800", "--warmup", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "model VII" in out

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "XI"])


class TestExperimentCommands:
    def test_figure3_subset(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["figure3", "--benchmarks", "gzip", "mesa",
                     "--instructions", "600", "--warmup", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "paper" in out

    def test_claims_subset(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["claims", "--benchmarks", "gzip",
                     "--instructions", "500", "--warmup", "150"])
        assert code == 0
        assert "Scalar claims" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["table3", "table4", "figure3"])
    def test_seed_reaches_every_plan(self, command, monkeypatch, tmp_path,
                                     capsys):
        executed = []

        def execute(plan):
            executed.append(plan)
            return BenchmarkRun(
                benchmark=plan.benchmark, instructions=plan.instructions,
                cycles=plan.instructions * 2, interconnect_dynamic=1.0,
                interconnect_leakage=1.0,
            ), 0.01

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
        code = main([command, "--benchmarks", "gzip", "--seed", "7",
                     "--instructions", "300", "--warmup", "80"])
        assert code == 0
        assert executed
        assert {plan.seed for plan in executed} == {7}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_window_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.instructions > 0
        assert args.warmup >= 0
        assert args.benchmarks is None
        assert args.workers == 1
        assert args.run_timeout is None
        assert args.max_retries == 0


class TestArgumentValidation:
    def _error_of(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        return capsys.readouterr().err

    def test_rejects_zero_workers(self, capsys):
        err = self._error_of(["table3", "--workers", "0"], capsys)
        assert "at least 1" in err and "serial" in err

    def test_rejects_negative_workers(self, capsys):
        err = self._error_of(["table3", "--workers", "-2"], capsys)
        assert "at least 1" in err

    def test_rejects_non_integer_workers(self, capsys):
        err = self._error_of(["table3", "--workers", "two"], capsys)
        assert "whole number" in err and "'two'" in err

    def test_rejects_non_integer_seed(self, capsys):
        err = self._error_of(["run", "--seed", "abc"], capsys)
        assert "integer" in err and "'abc'" in err

    def test_accepts_negative_seed(self):
        args = build_parser().parse_args(["run", "--seed", "-7"])
        assert args.seed == -7

    def test_rejects_non_positive_timeout(self, capsys):
        err = self._error_of(["run", "--run-timeout", "0"], capsys)
        assert "positive" in err
        err = self._error_of(["run", "--run-timeout", "soon"], capsys)
        assert "seconds" in err

    def test_rejects_negative_retries(self, capsys):
        err = self._error_of(["run", "--max-retries", "-1"], capsys)
        assert "non-negative" in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--clusters", "0"], "at least 1"),
        (["run", "--clusters", "four"], "whole number"),
        (["run", "--latency-scale", "0"], "finite and positive"),
        (["run", "--latency-scale", "inf"], "finite and positive"),
        (["run", "--latency-scale", "nan"], "finite and positive"),
        (["run", "--latency-scale", "x"], "expects a number"),
        (["run", "--instructions", "0"], "at least 1"),
        (["table3", "--warmup", "-1"], "non-negative"),
        (["run", "--benchmark", "nope"], "invalid choice: 'nope'"),
        (["trace", "X", "--benchmark", "nope"], "invalid choice: 'nope'"),
        (["figure3", "--benchmarks", "gzip", "nope"],
         "invalid choice: 'nope'"),
        (["explore", "--benchmarks", "nope"], "invalid choice: 'nope'"),
        (["faults", "--model", "X", "--benchmarks", "nope",
          "--instructions", "100", "--warmup", "10"],
         "invalid choice: 'nope'"),
        (["explore", "--fraction", "2"], "strictly between 0 and 1"),
        (["serve", "--queue-capacity", "0"], "must be at least 1"),
        (["serve", "--queue-capacity", "many"], "expects a whole number"),
    ])
    def test_rejects_plan_numbers_no_run_can_use(self, argv, message,
                                                 capsys):
        err = self._error_of(argv, capsys)
        assert message in err

    def test_rejects_malformed_fault_spec(self, capsys):
        err = self._error_of(["run", "--fault-spec", "kill=L@c0"], capsys)
        assert "CLASS@link@cycle" in err

    def test_rejects_unknown_fault_clause(self, capsys):
        err = self._error_of(["run", "--fault-spec", "zap=1"], capsys)
        assert "unknown fault clause" in err

    def test_fault_spec_canonicalized(self):
        args = build_parser().parse_args(
            ["run", "--fault-spec", "kill=L@c0@100; kill=B@c1@50"])
        assert args.fault_spec == "kill=B@c1@50;kill=L@c0@100"

    def test_gating_never_canonicalizes_to_empty(self):
        args = build_parser().parse_args(["run", "--gating", "never"])
        assert args.gating_policy == ""

    @pytest.mark.parametrize("argv", [
        # 'run' simulates exactly one --benchmark.
        ["run", "--benchmarks", "gzip"],
        # 'submit' never builds a local runner.
        ["submit", "--workers", "2"],
        ["submit", "--run-timeout", "5"],
        ["submit", "--max-retries", "1"],
        ["submit", "--no-cache"],
        ["submit", "--telemetry"],
        ["submit", "--trace-out", "t.json"],
        # A failed plan is retried only inside the runner.
        ["serve", "--job-retries", "1"],
        ["submit", "--retry-budget", "1"],
        # Worker faults are armed by the tests, not by the server.
        ["serve", "--service-faults", "kill-run=1"],
        # A crashed plan is retried by the runner and then manifested;
        # the server has no second crash policy.
        ["serve", "--breaker-window", "5"],
        ["serve", "--breaker-threshold", "0.5"],
        ["serve", "--breaker-cooldown", "30"],
    ])
    def test_rejects_flags_nothing_reads(self, argv, capsys):
        err = self._error_of(argv, capsys)
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["table3", "--workers", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--queue-capacity", "0"],
        ["explore", "--workers", "0"],
        ["run", "--run-timeout", "0"],
        ["serve", "--run-timeout", "-1"],
        ["explore", "--run-timeout", "0"],
        ["submit", "--timeout", "0"],
        ["explore", "--timeout", "-5"],
        ["run", "--max-retries", "-1"],
        ["serve", "--max-retries", "-1"],
        ["explore", "--max-retries", "-1"],
        ["explore", "--fraction", "1"],
        ["serve", "--port", "70000"],
        ["submit", "--port", "65536"],
        ["explore", "--port", "-1"],
        ["status", "--port", "99999"],
        ["explore", "--budget", "0"],
        ["run", "--clusters", "0"],
        ["submit", "--clusters", "-4"],
        ["run", "--latency-scale", "0"],
        ["submit", "--latency-scale", "inf"],
        ["run", "--instructions", "0"],
        ["explore", "--instructions", "0"],
        ["table3", "--warmup", "-1"],
        ["explore", "--warmup", "-1"],
    ])
    def test_rejection_names_the_flag(self, argv, capsys):
        flag = argv[1]
        assert f"{flag} must be" in self._error_of(argv, capsys)


#: Inputs every numeric plan-field flag is tried with.
NUMBERS = ["0", "-1", "1", "4", "16", "1.5", "2.0", "1e400", "nan", "inf",
           "four", ""]
#: Spec inputs: malformed, "never", and spellings that differ only in
#: spacing or clause order.
SPECS = {
    "fault_spec": ["", "never", "kill=L@c0", "zap=1", "ber=-1",
                   "ber=1e-6", "ber=1e-06", " ber=1e-6 ; retries=4 ",
                   "kill=L@c0@100; kill=B@c1@50",
                   "kill=B@c1@50;kill=L@c0@100",
                   "derate=PW:1.5;kill=L@*@2000",
                   "kill=L@*@2000;derate=PW:1.5"],
    "gating_policy": ["", "never", " never ", "bogus", "idle:drowsy=-1",
                      "idle:drowsy=1.5,gate=256", "idle",
                      "idle:drowsy=64,gate=256", "idle:gate=256,drowsy=64",
                      "idle: drowsy=64, gate=256", "ewma",
                      "ewma:thr=0.5,halflife=64"],
}
#: Plan-field flag -> the ExperimentPlan field it sets.
PLAN_FLAGS = {"--clusters": "num_clusters",
              "--latency-scale": "latency_scale",
              "--instructions": "instructions", "--warmup": "warmup",
              "--fault-spec": "fault_spec", "--gating": "gating_policy"}


def _plan_value(field, text):
    """What a plan stores for ``text`` in ``field``; None when no plan
    takes it (a number converts by the field's annotation first)."""
    kind = get_type_hints(ExperimentPlan)[field]
    try:
        plan = ExperimentPlan("I", "gzip", **{field: kind(text)})
    except ValueError:
        return None
    return getattr(plan, field)


class TestPlanFlagsAgreeWithPlan:
    """A plan-field flag takes exactly the inputs an ExperimentPlan
    (and so the sweep service) takes, and yields the plan's value."""

    @pytest.mark.parametrize("flag, text", [
        (flag, text) for flag, field in PLAN_FLAGS.items()
        for text in SPECS.get(field, NUMBERS)
    ])
    def test_run_flag_matches_plan(self, flag, text, capsys):
        field = PLAN_FLAGS[flag]
        try:
            parsed = getattr(
                build_parser().parse_args(["run", flag, text]), field)
        except SystemExit:
            parsed = None
        assert parsed == _plan_value(field, text)
        if parsed is None:
            assert flag in capsys.readouterr().err

    def test_explore_gating_matches_plan(self):
        texts = [t for t in SPECS["gating_policy"]
                 if _plan_value("gating_policy", t) is not None]
        args = build_parser().parse_args(["explore", "--gating", *texts])
        assert args.gating == [_plan_value("gating_policy", t)
                               for t in texts]

    def test_explore_gating_rejects_what_plan_rejects(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--gating", "idle",
                                       "bogus"])
        assert "unknown gating policy 'bogus'" in capsys.readouterr().err


class TestFaultCommands:
    def test_run_with_fault_spec_prints_degradation(self, capsys,
                                                    monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["run", "--model", "X", "--benchmark", "gzip",
                     "--instructions", "800", "--warmup", "200",
                     "--fault-spec", "kill=L@*@100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults (kill=L@*@100)" in out
        assert "planes killed" in out

    def test_faults_subcommand_renders_table(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["faults", "--benchmarks", "gzip",
                     "--instructions", "500", "--warmup", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation sweep" in out
        assert "fault-free" in out
        assert "L-plane kill" in out
        # The spec column shows each row's canonical spelling.
        row = next(line for line in out.splitlines()
                   if line.strip().startswith("ber 1e-6 |"))
        assert row.split("|")[1].strip() == "ber=1e-06"

    def test_faults_exits_1_when_a_run_failed(self, capsys, monkeypatch,
                                              tmp_path):
        def execute(plan):
            if plan.fault_spec == "kill=L@*@2000":
                raise RuntimeError("simulator fell over")
            return BenchmarkRun(
                benchmark=plan.benchmark, instructions=plan.instructions,
                cycles=plan.instructions * 2, interconnect_dynamic=1.0,
                interconnect_leakage=1.0,
            ), 0.01

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
        code = main(["faults", "--model", "X", "--benchmarks", "gzip",
                     "--instructions", "100", "--warmup", "10"])
        assert code == 1
        out = capsys.readouterr().out
        failed_rows = [line for line in out.splitlines()
                       if "|" in line and "FAILED" in line]
        assert [row.split("|")[0].strip() for row in failed_rows] == [
            "L-plane kill"]
        assert "1 run(s) failed:" in out
        assert "RuntimeError: simulator fell over" in out

    def test_power_subcommand_renders_table(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["power", "--benchmarks", "gzip",
                     "--instructions", "500", "--warmup", "120",
                     "--gating", "idle:gate=128,drowsy=32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Plane-gating power sweep, model X" in out
        header = next(line for line in out.splitlines()
                      if line.startswith("Scenario"))
        assert [cell.strip() for cell in header.split("|")] == [
            "Scenario", "Policy", "IPC", "dIPC", "Leakage", "Dynamic",
            "ED2", "wakes", "gated"]
        rows = {line.split("|")[0].strip(): line
                for line in out.splitlines() if "|" in line}
        for label in ("always-on", "idle 64/256", "idle 16/64",
                      "ewma h=64", "custom"):
            assert label in rows
        assert "idle:drowsy=32,gate=128" in rows["custom"]
        # The always-on row is the baseline every column is relative to.
        assert [cell.strip() for cell in rows["always-on"].split("|")][
            3:7] == ["+0.0%", "100", "100", "100"]
