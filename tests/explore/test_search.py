"""The explorer end-to-end: grid, sampling, determinism, caching."""

import pytest

from repro.explore import (
    EvaluationSettings,
    ExploreResult,
    SearchSpace,
    baseline_point,
    explore,
    runner_executor,
)
from repro.explore.report import CSV_FIELDS, frontier_table, to_csv
from repro.harness.runner import ExperimentRunner, ResultCache
from repro.wires import WireClass

SETTINGS = EvaluationSettings(
    benchmarks=("bzip2",), instructions=2000, warmup=200, seed=0,
)


def make_executor(tmp_path):
    runner = ExperimentRunner(cache=ResultCache(tmp_path))
    return runner_executor(runner)


class TestSearchSpace:
    def test_grid_enumerates_valid_mixes(self):
        space = SearchSpace(nodes=(45,), b_options=(144,),
                            pw_options=(0, 288), l_options=(0, 36))
        encodings = [p.encode() for p in space.points()]
        assert encodings == sorted(encodings)
        assert "dp@n45:B144:cw2|xbar4" in encodings
        assert "dp@n45:PW288+B144+L36:cw2|xbar4" in encodings
        assert space.size() == 4

    def test_mixes_without_bulk_plane_are_excluded(self):
        space = SearchSpace(nodes=(45,), b_options=(0, 144),
                            pw_options=(0,), l_options=(0, 36))
        for point in space.points():
            mix = point.wire_mapping()
            assert any(mix.get(wc, 0) for wc in
                       (WireClass.B, WireClass.PW, WireClass.W))
        # L-only (B=0, PW=0, L=36) was dropped.
        assert space.size() == 2

    def test_neighbors_are_one_step_away(self):
        space = SearchSpace(nodes=(45, 32, 22))
        point = baseline_point()
        neighbors = space.neighbors(point)
        assert point not in neighbors
        assert any(n.node == 32 for n in neighbors)
        assert all(n.node in space.nodes for n in neighbors)
        # The 45 nm anchor sits at the edge of the node axis.
        assert not any(n.node == 22 for n in neighbors)

    def test_rejects_empty_or_unknown(self):
        with pytest.raises(ValueError):
            SearchSpace(nodes=())
        with pytest.raises(ValueError):
            SearchSpace(nodes=(45,), topologies=("torus",))
        # Grids with no valid point: no bulk-capable plane, an empty
        # wire axis, no topology.
        for empty in (dict(b_options=(0,), pw_options=(0,)),
                      dict(b_options=()), dict(topologies=())):
            with pytest.raises(ValueError, match="no design point"):
                SearchSpace(nodes=(45,), **empty)


class TestExplore:
    def test_exhaustive_when_budget_covers_space(self, tmp_path):
        space = SearchSpace(nodes=(45, 32), pw_options=(0,),
                            l_options=(0, 36))
        result = explore(space, SETTINGS, make_executor(tmp_path),
                         budget=100, seed=0)
        assert isinstance(result, ExploreResult)
        assert len(result.evaluated) == space.size() == 8
        assert not result.failures
        assert result.baseline is not None
        assert result.baseline.rel_delay == 1.0
        assert result.baseline.energy == pytest.approx(100.0)
        assert result.baseline.ed2 == pytest.approx(100.0)

    def test_sampling_respects_budget(self, tmp_path):
        space = SearchSpace(nodes=(45, 32, 22, 16))
        assert space.size() > 12
        result = explore(space, SETTINGS, make_executor(tmp_path),
                         budget=12, seed=1)
        assert len(result.evaluated) <= 12
        # The 45 nm anchor is always evaluated for normalization.
        assert any(m.point == baseline_point()
                   for m in result.evaluated)

    def test_same_seed_same_frontier(self, tmp_path):
        space = SearchSpace(nodes=(45, 32, 22))
        first = explore(space, SETTINGS,
                        make_executor(tmp_path / "a"),
                        budget=10, seed=7)
        second = explore(space, SETTINGS,
                         make_executor(tmp_path / "b"),
                         budget=10, seed=7)
        assert [m.point.encode() for m in first.evaluated] \
            == [m.point.encode() for m in second.evaluated]
        assert [m.point.encode() for m in first.frontier] \
            == [m.point.encode() for m in second.frontier]
        assert first.evaluated == second.evaluated

    def test_rerun_is_pure_cache_hits(self, tmp_path):
        space = SearchSpace(nodes=(45, 32), pw_options=(0,))
        executor = make_executor(tmp_path)
        first = explore(space, SETTINGS, executor, budget=100, seed=0)
        assert first.executed > 0
        second = explore(space, SETTINGS, executor, budget=100, seed=0)
        assert second.executed == 0
        assert second.cache_hits == first.executed + first.cache_hits
        assert second.evaluated == first.evaluated
        assert second.frontier == first.frontier

    def test_frontier_members_are_non_dominated(self, tmp_path):
        from repro.explore.pareto import dominates, objective_vector

        space = SearchSpace(nodes=(45, 22))
        result = explore(space, SETTINGS, make_executor(tmp_path),
                         budget=100, seed=0)
        vectors = [objective_vector(m, result.objectives)
                   for m in result.evaluated]
        for member in result.frontier:
            mv = objective_vector(member, result.objectives)
            assert not any(dominates(v, mv) for v in vectors)


class TestReport:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        space = SearchSpace(nodes=(45, 32), pw_options=(0,))
        return explore(
            space, SETTINGS,
            make_executor(tmp_path_factory.mktemp("explore")),
            budget=100, seed=0,
        )

    def test_frontier_table_lists_members(self, result):
        text = frontier_table(result)
        assert "design point" in text
        assert "explore:" in text
        for member in result.frontier:
            assert member.point.encode() in text

    def test_csv_covers_every_evaluated_point(self, result):
        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(to_csv(result))))
        assert len(rows) == len(result.evaluated)
        assert tuple(rows[0]) == CSV_FIELDS
        frontier = {m.point.encode() for m in result.frontier}
        for row in rows:
            on_frontier = row["design_point"] in frontier
            assert row["on_frontier"] == str(int(on_frontier))
            assert (row["dominance_rank"] == "0") == on_frontier
