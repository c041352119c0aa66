"""Smoke tests for the table/figure regeneration functions.

Tiny windows and two benchmarks: these check plumbing and rendering,
not magnitudes (the benchmark harness owns those).
"""

from dataclasses import replace

import pytest

from repro.harness import ExperimentPlan, ExperimentRunner, ResultCache
from repro.harness.claims import render_claims, run_claims
from repro.harness.figure3 import render_figure3, run_figure3
from repro.harness.table3 import render_table3, run_table3
from repro.harness.table4 import render_table4, run_table4

BENCHES = ("gzip", "mesa")
BASE = ExperimentPlan("I", "gzip", instructions=700, warmup=200)


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(cache=ResultCache(tmp_path), verbose=False)


class TestFigure3:
    def test_runs_and_renders(self, runner):
        result = run_figure3(runner, BASE, BENCHES)
        assert result.benchmarks == BENCHES
        assert all(ipc > 0 for ipc in result.baseline_ipc)
        text = render_figure3(result)
        assert "Figure 3" in text
        assert "gzip" in text and "mesa" in text
        assert "paper" in text

    def test_am_math(self, runner):
        result = run_figure3(runner, BASE, BENCHES)
        assert result.baseline_am == pytest.approx(
            sum(result.baseline_ipc) / 2
        )


class TestTable3:
    def test_runs_subset_of_models(self, runner):
        result = run_table3(runner, BASE, BENCHES, models=("I", "II", "VII"))
        assert [r.model for r in result.rows] == ["I", "II", "VII"]
        baseline = result.row("I")
        assert baseline.relative_dynamic == pytest.approx(1.0)
        assert baseline.relative_leakage == pytest.approx(1.0)
        assert baseline.ed2(0.10) == pytest.approx(100.0)

    def test_render_includes_paper_comparison(self, runner):
        result = run_table3(runner, BASE, BENCHES, models=("I", "II"))
        text = render_table3(result)
        assert "Paper's Table 3" in text
        assert "288 PW-Wires" in text

    def test_best_ed2_lookup(self, runner):
        result = run_table3(runner, BASE, BENCHES, models=("I", "VII"))
        assert result.best_ed2(0.20).model in ("I", "VII")

    def test_row_lookup_raises(self, runner):
        result = run_table3(runner, BASE, BENCHES, models=("I",))
        with pytest.raises(KeyError):
            result.row("X")


class TestTable4:
    def test_sixteen_cluster_runs(self, runner):
        result = run_table4(runner, BASE, BENCHES, models=("I", "VII"))
        assert result.num_clusters == 16
        text = render_table4(result)
        assert "16-cluster" in text
        assert "best ED2(20%)" in text


class TestClaims:
    def test_all_claims_present(self, runner):
        claims = run_claims(runner, BASE, BENCHES)
        names = {c.name for c in claims}
        assert names == {
            "latency_doubling_ipc_loss", "figure3_lwire_gain",
            "lwire_gain_2x_latency", "scaling_4_to_16",
            "lwire_gain_16cl", "narrow_register_traffic",
            "narrow_predictor_coverage", "narrow_predictor_false",
            "false_dependence_rate",
        }
        text = render_claims(claims)
        assert "paper" in text

    def test_claims_carry_paper_values(self, runner):
        claims = run_claims(runner, BASE, BENCHES)
        by_name = {c.name: c for c in claims}
        assert by_name["latency_doubling_ipc_loss"].paper == -12.0
        assert by_name["figure3_lwire_gain"].paper == 4.2


def cross_product(models, clusters=4, latency_scale=1.0):
    """The plans of ``models`` x BENCHES, spelled out field by field."""
    return {
        ExperimentPlan(model_name=name, benchmark=bench,
                       num_clusters=clusters, latency_scale=latency_scale,
                       instructions=700, warmup=200)
        for name in models for bench in BENCHES
    }


class TestBatches:
    """Each driver runs exactly its cross product, built from the base."""

    def test_figure3_runs_both_models(self, runner):
        run_figure3(runner, BASE, BENCHES)
        assert set(runner.last_report.results) == cross_product(
            ("I", "VII"))

    def test_table3_runs_every_model(self, runner):
        run_table3(runner, BASE, BENCHES, models=("I", "II", "VII"))
        assert set(runner.last_report.results) == cross_product(
            ("I", "II", "VII"))

    def test_table4_runs_every_model_on_sixteen_clusters(self, runner):
        run_table4(runner, BASE, BENCHES, models=("I", "VII"))
        assert set(runner.last_report.results) == cross_product(
            ("I", "VII"), clusters=16)

    def test_claims_run_six_sweeps(self, runner):
        run_claims(runner, BASE, BENCHES)
        assert set(runner.last_report.results) == (
            cross_product(("I", "VII"))
            | cross_product(("I", "VII"), latency_scale=2.0)
            | cross_product(("I", "VII"), clusters=16))

    @pytest.mark.parametrize("driver", [run_figure3, run_table3,
                                        run_table4, run_claims])
    def test_unvaried_base_fields_reach_every_plan(self, runner, driver):
        gated = replace(BASE, gating_policy="idle:drowsy=16,gate=64",
                        seed=3)
        driver(runner, gated, BENCHES)
        plans = set(runner.last_report.results)
        assert plans
        assert {p.gating_policy for p in plans} == {
            "idle:drowsy=16,gate=64"}
        assert {(p.seed, p.instructions, p.warmup) for p in plans} == {
            (3, 700, 200)}
        assert {p.benchmark for p in plans} == set(BENCHES)
