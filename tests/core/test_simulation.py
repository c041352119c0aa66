"""Tests for the simulation drivers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.metrics import ModelResult
from repro.core.models import model
from repro.core.simulation import build_processor, simulate_benchmark
from repro.harness import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    run_variants,
)


class TestBuildProcessor:
    def test_builds_and_prewarms(self):
        cpu = build_processor(model("I").config, "gzip")
        # Prewarm leaves the benchmark's working set resident in L2.
        assert cpu.hierarchy.l2.contains(0x1000_0000)

    def test_cluster_count(self):
        cpu = build_processor(model("I").config, "gzip", num_clusters=16)
        assert len(cpu.clusters) == 16

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            build_processor(model("I").config, "quake3")


class TestSimulateBenchmark:
    def test_returns_measured_run(self):
        run = simulate_benchmark(model("I").config, "gzip",
                                 instructions=1500, warmup=500)
        assert run.benchmark == "gzip"
        assert run.instructions >= 1500
        assert run.cycles > 0
        assert run.interconnect_dynamic > 0
        assert run.interconnect_leakage > 0
        assert 0.05 < run.ipc < 8.0

    def test_warmup_not_measured(self):
        """Measured cycles must reflect only the measurement window."""
        short = simulate_benchmark(model("I").config, "gzip",
                                   instructions=1000, warmup=2000)
        assert short.instructions < 1500 + 500

    def test_seed_reproducibility(self):
        a = simulate_benchmark(model("I").config, "mesa",
                               instructions=1000, warmup=200, seed=5)
        b = simulate_benchmark(model("I").config, "mesa",
                               instructions=1000, warmup=200, seed=5)
        assert a.cycles == b.cycles
        assert a.interconnect_dynamic == b.interconnect_dynamic

    def test_extra_stats_present(self):
        run = simulate_benchmark(model("VII").config, "gzip",
                                 instructions=1000, warmup=300)
        extra = run.extra_stats()
        for key in ("redirects", "loads", "stores", "false_dependences",
                    "narrow_coverage", "early_ram_starts"):
            assert key in extra
        assert extra["early_ram_starts"] > 0  # L-Wires enable the pipeline


class TestSimulateModel:
    def test_subset_of_benchmarks(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path), verbose=False)
        base = ExperimentPlan("I", "gzip", instructions=800, warmup=200)
        result = run_variants(runner, base, {"I": {}},
                              ("gzip", "mesa"))["I"]
        assert isinstance(result, ModelResult)
        assert {r.benchmark for r in result.runs} == {"gzip", "mesa"}
        assert result.am_ipc > 0


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _python(script, **env_vars):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


class TestWindowEnvironment:
    """``REPRO_INSTRUCTIONS``/``REPRO_WARMUP`` set the default window; a
    value no plan accepts fails at import and names its variable."""

    @pytest.mark.parametrize("variable, value, message", [
        ("REPRO_INSTRUCTIONS", "abc",
         "REPRO_INSTRUCTIONS='abc': instructions must be an integer >= 1"),
        ("REPRO_INSTRUCTIONS", "0",
         "REPRO_INSTRUCTIONS='0': instructions must be an integer >= 1"),
        ("REPRO_WARMUP", "-5",
         "REPRO_WARMUP='-5': warmup must be an integer >= 0"),
        ("REPRO_WARMUP", "1e3",
         "REPRO_WARMUP='1e3': warmup must be an integer >= 0"),
    ], ids=["instructions-abc", "instructions-0", "warmup-negative",
            "warmup-float"])
    def test_bad_value_names_its_variable(self, variable, value, message):
        proc = _python("import repro", **{variable: value})
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines()[-1] == (
            f"ValueError: {message}")

    def test_good_values_set_the_plan_defaults(self):
        proc = _python(
            "from repro.harness import ExperimentPlan\n"
            "plan = ExperimentPlan('I', 'gzip')\n"
            "print(plan.instructions, plan.warmup)",
            REPRO_INSTRUCTIONS="1500", REPRO_WARMUP="0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1500", "0"]
