"""The gating-policy sweep axis: design points, search grid, reporting.

Covers the explorer half of the plane power-management feature: gated
design points encode/decode alongside the pre-gating spellings, the
grid crosses gating policies with every mix, and the CSV/table output
grows gating + leakage-share columns (the latter guarded against
zero-traffic division, the regression this file pins).
"""

import csv
import io

import pytest

from repro.explore import (
    EvaluationSettings,
    ExploreResult,
    SearchSpace,
    DesignPoint,
    PointMetrics,
    explore,
    runner_executor,
)
from repro.explore.report import CSV_FIELDS, frontier_table, leakage_share, to_csv
from repro.explore.search import _safe_ratio
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache
from repro.wires import WireClass

GATED = "idle:drowsy=16,gate=64"


def point(gating=""):
    return DesignPoint.from_mix(
        45, {WireClass.B: 144, WireClass.L: 36}, gating=gating,
    )


class TestDesignPointGating:
    def test_encode_decode_round_trip(self):
        p = point(GATED)
        assert p.encode().endswith(f"|g={GATED}")
        assert DesignPoint.decode(p.encode()) == p

    def test_ungated_encoding_is_unchanged(self):
        # Pre-gating encodings are cache keys; they must not move.
        p = point()
        assert p.encode() == "dp@n45:B144+L36:cw2|xbar4"
        assert DesignPoint.decode(p.encode()) == p

    def test_non_canonical_gating_rejected(self):
        with pytest.raises(ValueError, match="not canonical"):
            point("idle")
        with pytest.raises(ValueError, match="not canonical"):
            point("never")

    def test_malformed_suffix_rejected(self):
        with pytest.raises(ValueError, match="g="):
            DesignPoint.decode("dp@n45:B144+L36:cw2|xbar4|idle")

    def test_plans_carry_the_policy(self):
        base = ExperimentPlan("I", "gzip", instructions=800, warmup=200,
                              seed=42)
        plans = point(GATED).compile_plans(base, ("gzip",))
        assert all(p.gating_policy == GATED for p in plans)
        ungated = point().compile_plans(base, ("gzip",))
        assert all(p.gating_policy == "" for p in ungated)


class TestSearchSpaceGatingAxis:
    def test_grid_crosses_gating_with_mixes(self):
        space = SearchSpace(nodes=(45,), b_options=(144,),
                            pw_options=(0,), l_options=(0, 36),
                            gating_policies=("", GATED))
        points = space.points()
        assert len(points) == 4  # 2 mixes x 2 policies
        assert {p.gating for p in points} == {"", GATED}

    def test_neighbors_step_along_the_gating_axis(self):
        space = SearchSpace(nodes=(45,), b_options=(144,),
                            pw_options=(0,), l_options=(0,),
                            gating_policies=("", GATED))
        neighbors = space.neighbors(point())
        assert point(GATED) in neighbors
        # And every neighbor of a gated point keeps its policy except
        # the gating-axis step itself.
        back = space.neighbors(point(GATED))
        assert point() in back

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError, match="bad gating policy"):
            SearchSpace(nodes=(45,), gating_policies=("idle:bogus=1",))
        with pytest.raises(ValueError, match="not canonical"):
            SearchSpace(nodes=(45,), gating_policies=("never",))
        with pytest.raises(ValueError, match="at least one gating"):
            SearchSpace(nodes=(45,), gating_policies=())


def metrics(gating="", rel_dynamic=1.0, rel_leakage=1.0):
    return PointMetrics(
        point=point(gating), ipc=1.0, rel_delay=1.0,
        rel_dynamic=rel_dynamic, rel_leakage=rel_leakage,
        energy=100.0, ed2=100.0, area_mm2=1.0,
    )


def make_result(*points_metrics):
    return ExploreResult(
        evaluated=tuple(points_metrics),
        frontier=tuple(points_metrics[:1]),
        failures=(), space_size=len(points_metrics),
        executed=len(points_metrics), cache_hits=0,
    )


class TestLeakageShareReporting:
    def test_safe_ratio_guards_zero_denominator(self):
        assert _safe_ratio(5.0, 0.0) == 0.0
        assert _safe_ratio(5.0, 2.0) == 2.5

    def test_leakage_share_zero_traffic_point(self):
        # Regression: a point whose planes carried no traffic has zero
        # dynamic AND zero leakage -- the share must be 0.0, not a
        # ZeroDivisionError.
        assert leakage_share(
            metrics(rel_dynamic=0.0, rel_leakage=0.0)) == 0.0

    def test_leakage_share_ordinary_point(self):
        share = leakage_share(metrics(rel_dynamic=1.0, rel_leakage=1.0))
        assert 0.0 < share < 1.0

    def test_csv_appends_gating_columns_at_the_end(self):
        # Downstream notebooks index columns positionally; new fields
        # may only be appended.
        assert CSV_FIELDS[-2:] == ("gating", "leakage_share")
        rows = list(csv.DictReader(io.StringIO(to_csv(
            make_result(metrics(GATED), metrics())
        ))))
        assert rows[0]["gating"] == GATED
        assert rows[1]["gating"] == ""
        assert float(rows[0]["leakage_share"]) > 0.0

    def test_csv_zero_traffic_row_renders(self):
        rows = list(csv.DictReader(io.StringIO(to_csv(
            make_result(metrics(rel_dynamic=0.0, rel_leakage=0.0))
        ))))
        assert rows[0]["leakage_share"] == "0.000000"

    def test_frontier_table_shows_policy(self):
        text = frontier_table(make_result(metrics(GATED)))
        assert GATED in text
        assert "leak share" in text
        always = frontier_table(make_result(metrics()))
        assert "always-on" in always


class TestGatedExploreEndToEnd:
    def test_gated_frontier_comes_out_of_explore(self, tmp_path):
        space = SearchSpace(nodes=(45,), b_options=(144,),
                            pw_options=(288,), l_options=(36,),
                            gating_policies=("", GATED))
        settings = EvaluationSettings(
            benchmarks=("gzip",),
            base=ExperimentPlan("I", "gzip", instructions=800, warmup=200,
                                seed=42))
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        result = explore(space, settings, runner_executor(runner),
                         budget=8)
        assert not result.failures
        by_gating = {m.point.gating: m for m in result.evaluated}
        assert set(by_gating) == {"", GATED}
        # The gated point must actually trade leakage for IPC.
        assert (by_gating[GATED].rel_leakage
                < by_gating[""].rel_leakage)
