"""Tests for the experiment runner and its result cache."""

import json
import pickle
import threading
from dataclasses import fields

import pytest

from repro.core.metrics import BenchmarkRun
from repro.faults import FaultSpec
from repro.harness import runner as runner_module
from repro.harness.runner import (
    CACHE_VERSION,
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    run_variants,
    simulate_plan,
)
from repro.interconnect.selection import PolicyFlags
from repro.interconnect.stats import InterconnectStats
from repro.interconnect.topology import Topology
from repro.power import parse_gating, policy as policy_module
from repro.workloads import annotate


def make_run(bench="gzip"):
    return BenchmarkRun(
        benchmark=bench, instructions=1000, cycles=1200,
        interconnect_dynamic=123.0, interconnect_leakage=456.0,
        extra=(("redirects", 3.0),),
    )


class TestPlanKeys:
    def test_identical_plans_same_key(self):
        a = ExperimentPlan("I", "gzip")
        b = ExperimentPlan("I", "gzip")
        assert a.cache_key() == b.cache_key()

    def test_any_field_changes_key(self):
        base = ExperimentPlan("I", "gzip")
        variants = [
            ExperimentPlan("II", "gzip"),
            ExperimentPlan("I", "mesa"),
            ExperimentPlan("I", "gzip", num_clusters=16),
            ExperimentPlan("I", "gzip", latency_scale=2.0),
            ExperimentPlan("I", "gzip", instructions=999),
            ExperimentPlan("I", "gzip", warmup=7),
            ExperimentPlan("I", "gzip", seed=1),
            ExperimentPlan("I", "gzip", policy_tag="lwire_narrow=0"),
        ]
        keys = {v.cache_key() for v in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    @pytest.mark.parametrize("plan, key", [
        (ExperimentPlan("X", "gzip", instructions=500, warmup=120),
         "975fb9bd4e2695c85395717b"),
        (ExperimentPlan("X", "art", instructions=500, warmup=120,
                        fault_spec="ber=0.0001"),
         "f836318af472bf7445960db3"),
        (ExperimentPlan("VII", "gzip", instructions=500, warmup=120,
                        gating_policy="idle:drowsy=64,gate=256"),
         "6e3e613cfb0290bc924ad8e4"),
    ], ids=["healthy", "faulted", "gated"])
    def test_canonical_plans_keep_their_pinned_keys(self, plan, key,
                                                    monkeypatch):
        # A refactor of how plans are keyed must leave canonical plans
        # where they were.  The source digest is held fixed so that
        # only plan canonicalization and serialization are pinned.
        monkeypatch.setattr(runner_module, "CACHE_VERSION",
                            "c0ffee0123456789")
        assert plan.cache_key() == key


class TestModelNames:
    """A plan takes only models a run can build."""

    @pytest.mark.parametrize("name", ["ZZ", "dp@n45:B143:cw2"])
    def test_constructor_rejects_unbuildable_model(self, name):
        with pytest.raises(ValueError, match="bad model_name"):
            ExperimentPlan(name, "gzip")

    @pytest.mark.parametrize("name", ["ZZ", "dp@n45:B143:cw2"])
    def test_from_dict_rejects_unbuildable_model(self, name):
        data = ExperimentPlan("X", "gzip").to_dict()
        data["model_name"] = name
        with pytest.raises(ValueError, match="bad model_name"):
            ExperimentPlan.from_dict(data)


class TestClusterCounts:
    """A plan takes exactly the cluster counts a topology can build."""

    @pytest.mark.parametrize("count", [1, 5, 6, 7, 9, 10])
    def test_rejects_counts_no_topology_builds(self, count):
        with pytest.raises(ValueError, match="bad num_clusters"):
            ExperimentPlan("X", "gzip", num_clusters=count)

    @pytest.mark.parametrize("count", [2, 3, 4, 8, 12, 16])
    def test_accepts_counts_a_topology_builds(self, count):
        plan = ExperimentPlan("X", "gzip", num_clusters=count)
        assert Topology(count).num_clusters == plan.num_clusters


class TestParseOnce:
    """A plan parses its three specs at construction; runs reuse them."""

    PLAN = ExperimentPlan("X", "gzip", instructions=300, warmup=60,
                          policy_tag="lwire_narrow=0",
                          fault_spec="ber=1e-4",
                          gating_policy="idle:drowsy=16,gate=64")
    #: The parsers, and each module that holds ``parse_gating`` by name.
    PARSERS = ((PolicyFlags, "from_tag"), (FaultSpec, "parse"),
               (policy_module, "parse_gating"),
               (runner_module, "parse_gating"))

    def count_parses(self, monkeypatch):
        calls = []
        for owner, name in self.PARSERS:
            def counting(*args, _parse=getattr(owner, name),
                         _name=f"{owner.__name__}.{name}"):
                calls.append(_name)
                return _parse(*args)
            monkeypatch.setattr(owner, name, staticmethod(counting)
                                if isinstance(owner, type) else counting)
        return calls

    def test_parsed_specs_ride_on_the_plan(self):
        plan = self.PLAN
        assert plan.flags == PolicyFlags(lwire_narrow=False)
        assert plan.faults == FaultSpec.parse("ber=1e-4")
        assert plan.gating == parse_gating("idle:drowsy=16,gate=64")
        healthy = ExperimentPlan("X", "gzip", gating_policy="never")
        assert healthy.faults is None and healthy.gating is None
        # Not fields: keys, equality and JSON see only the strings.
        assert [f.name for f in fields(ExperimentPlan)] == list(
            plan.to_dict()) == [
                "model_name", "benchmark", "num_clusters", "latency_scale",
                "instructions", "warmup", "seed", "policy_tag",
                "fault_spec", "gating_policy"]

    def test_a_run_parses_nothing(self, monkeypatch):
        calls = self.count_parses(monkeypatch)
        run = simulate_plan(self.PLAN)
        assert calls == []
        # The specs took effect: faults injected, planes gated.
        extra = dict(run.extra)
        assert extra["corrupted_segments"] > 0
        assert "plane_wakes" in extra

    def test_a_pickled_plan_keeps_its_parsed_specs(self, monkeypatch):
        calls = self.count_parses(monkeypatch)
        plan = self.PLAN
        clone = pickle.loads(pickle.dumps(plan))
        assert calls == []
        assert clone == plan and hash(clone) == hash(plan)
        assert clone.cache_key() == plan.cache_key()
        assert (clone.flags, clone.faults, clone.gating) == (
            plan.flags, plan.faults, plan.gating)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        assert cache.load(plan) is None
        run = make_run()
        cache.store(plan, run)
        loaded = cache.load(plan)
        assert loaded == run

    def test_roundtrip_multiple_extra_pairs(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("VII", "mesa")
        run = BenchmarkRun(
            benchmark="mesa", instructions=5000, cycles=4000,
            interconnect_dynamic=9.5, interconnect_leakage=12.25,
            extra=(("redirects", 3.0), ("loads", 1200.0),
                   ("narrow_coverage", 0.953)),
        )
        cache.store(plan, run)
        assert cache.load(plan) == run

    def test_entries_are_sharded_two_levels(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        path = cache._path(plan)
        key = plan.cache_key()
        assert path == tmp_path / key[:2] / key[2:4] / f"{key}.json"
        assert path.exists()

    def test_corrupt_file_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        cache._path(plan).write_text("{not json")
        assert cache.load(plan) is None

    def test_truncated_file_ignored_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        full = cache._path(plan).read_text()
        cache._path(plan).write_text(full[: len(full) // 2])
        assert cache.load(plan) is None
        assert not cache._path(plan).exists()
        assert (tmp_path / "quarantine" / cache._path(plan).name).exists()
        # A quarantined entry is a plain miss from then on.
        assert cache.load(plan) is None

    def test_missing_field_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        data = json.loads(cache._path(plan).read_text())
        del data["cycles"]
        cache._path(plan).write_text(json.dumps(data))
        assert cache.load(plan) is None

    def test_mistyped_field_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        data = json.loads(cache._path(plan).read_text())
        data["cycles"] = "1200"
        cache._path(plan).write_text(json.dumps(data))
        assert cache.load(plan) is None

    def test_wrong_cache_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        data = json.loads(cache._path(plan).read_text())
        data["provenance"]["cache_version"] = "0123456789abcdef"
        assert data["provenance"]["cache_version"] != CACHE_VERSION
        cache._path(plan).write_text(json.dumps(data))
        assert cache.load(plan) is None

    def test_corrupt_entry_is_reexecuted(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip", instructions=400, warmup=100)
        cache._path(plan).parent.mkdir(parents=True, exist_ok=True)
        cache._path(plan).write_text("garbage garbage")
        runner = ExperimentRunner(cache=cache, verbose=False)
        run = runner.run(plan)
        assert runner.last_report.summary.executed == 1
        assert run.instructions >= 400
        # The re-execution replaced the bad entry with a good one.
        assert cache.load(plan) == run

    def test_disabled_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        assert cache.load(plan) is None
        assert not list(tmp_path.iterdir())

    def test_env_no_cache_overrides_enabled_flag(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path, enabled=True)
        assert not cache.enabled

    def test_enabled_false_disables_without_env(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ResultCache(tmp_path, enabled=False)
        plan = ExperimentPlan("I", "gzip")
        cache.store(plan, make_run())
        assert cache.load(plan) is None
        assert not list(tmp_path.iterdir())

    def test_store_is_atomic_no_temp_files_left(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.store(ExperimentPlan("I", "gzip", seed=i), make_run())
        names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
        assert len(names) == 20
        assert all(n.endswith(".json") for n in names)

    def test_concurrent_stores_never_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip")

        def hammer(value):
            run = BenchmarkRun(
                benchmark="gzip", instructions=1000, cycles=1000 + value,
                interconnect_dynamic=float(value),
                interconnect_leakage=1.0,
            )
            for _ in range(25):
                cache.store(plan, run)

        threads = [threading.Thread(target=hammer, args=(v,))
                   for v in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one file, and it parses as one of the writers' values.
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [f.name for f in files] == [cache._path(plan).name]
        loaded = cache.load(plan)
        assert loaded is not None
        assert loaded.cycles in {1000, 1001, 1002, 1003}

    def test_provenance_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("VII", "mesa", num_clusters=16,
                              policy_tag="pw_store_data=0")
        cache.store(plan, make_run("mesa"), duration=1.25)
        data = json.loads(cache._path(plan).read_text())
        prov = data["provenance"]
        assert prov["cache_version"] == CACHE_VERSION
        assert prov["duration_seconds"] == 1.25
        assert prov["plan"]["model_name"] == "VII"
        assert prov["plan"]["num_clusters"] == 16
        assert prov["plan"]["policy_tag"] == "pw_store_data=0"
        assert isinstance(prov["simulator_commit"], str)


class TestRunner:
    def test_cache_hit_avoids_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = ExperimentPlan("I", "gzip", instructions=800, warmup=200)
        cache.store(plan, make_run())
        runner = ExperimentRunner(cache=cache, verbose=False)
        run = runner.run(plan)
        assert runner.last_report.summary.cache_hits == 1
        assert runner.last_report.summary.executed == 0
        assert run.cycles == 1200

    def test_executes_and_caches_on_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(cache=cache, verbose=False)
        plan = ExperimentPlan("I", "gzip", instructions=600, warmup=150)
        first = runner.run(plan)
        assert runner.last_report.summary.executed == 1
        second = runner.run(plan)
        assert runner.last_report.summary.cache_hits == 1
        assert second == first

    def test_run_model_aggregates(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        base = ExperimentPlan("I", "art", instructions=500, warmup=100)
        result = run_variants(runner, base, {"I": {}},
                              ("gzip", "mesa"))["I"]
        assert result.model == "I"
        assert [r.benchmark for r in result.runs] == ["gzip", "mesa"]
        assert runner.last_report.summary.requested == 2

    def test_run_many_dedupes_and_summarizes(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(cache=cache, verbose=False)
        a = ExperimentPlan("I", "gzip", instructions=400, warmup=100)
        b = ExperimentPlan("I", "mesa", instructions=400, warmup=100)
        cache.store(b, make_run("mesa"))
        results = runner.run_many([a, b, a, a])
        assert set(results) == {a, b}
        summary = runner.last_report.summary
        assert summary.requested == 4
        assert summary.unique == 2
        assert summary.executed == 1
        assert summary.cache_hits == 1
        assert summary.total_duration >= summary.max_duration > 0
        assert "1 executed" in summary.render()
        assert "2 duplicate plans coalesced" in summary.render()

    def test_run_many_warm_cache_executes_nothing(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        plans = [ExperimentPlan("I", b, instructions=400, warmup=100)
                 for b in ("gzip", "mesa")]
        cold = runner.run_many(plans)
        assert runner.last_report.summary.executed == 2
        warm = runner.run_many(plans)
        assert runner.last_report.summary.executed == 0
        assert runner.last_report.summary.cache_hits == 2
        assert warm == cold

    def test_run_model_flags_distinct_cache(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        ablated = PolicyFlags(lwire_narrow=False)
        base = ExperimentPlan("VII", "gzip", instructions=500, warmup=100)
        results = run_variants(
            runner, base,
            {"stock": dict(policy_tag=PolicyFlags().tag()),
             "ablated": dict(policy_tag=ablated.tag())},
            ("gzip",),
        )
        # distinct tags, no false sharing
        assert runner.last_report.summary.executed == 2
        plans = runner.last_report.results
        assert len({plan.cache_key() for plan in plans}) == 2
        assert {plan.policy_tag for plan in plans} == {
            "default", "lwire_narrow=0"}
        assert {r.model for r in results.values()} == {"VII"}


    def test_accounting_error_is_a_failure_never_cached(self, tmp_path,
                                                        monkeypatch):
        # The warmup-reset defect: counters forget the 16 nm catalog.
        monkeypatch.setattr(InterconnectStats, "reset",
                            lambda self: self.__init__())
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(cache=cache, verbose=False)
        plan = ExperimentPlan("dp@n16:B144+L36:cw1", "gzip",
                              instructions=800, warmup=200)
        report = runner.run_many_report([plan])
        assert report.results == {}
        [failure] = report.failures
        assert failure.plan == plan and failure.reason == "error"
        assert failure.detail.startswith(
            "AccountingError: dynamic-energy identity failed on gzip")
        assert "AccountingError" in report.manifest()
        assert cache.load(plan) is None
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


class TestTraceKeyOrder:
    """A serial sweep runs its misses in trace-key order, so the
    one-key annotated-trace memo annotates each benchmark once."""

    MODEL_MAJOR = [ExperimentPlan(name, bench, instructions=400, warmup=100)
                   for name in ("I", "VII")
                   for bench in ("gzip", "mcf", "art")]
    KEY_MAJOR = MODEL_MAJOR[0::3] + MODEL_MAJOR[1::3] + MODEL_MAJOR[2::3]

    def test_model_major_sweep_annotates_each_benchmark_once(
            self, tmp_path, monkeypatch):
        built = []
        init = annotate.AnnotatedTrace.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(annotate.AnnotatedTrace, "__init__", counted)
        annotate.clear_cache()
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        report = runner.run_many_report(self.MODEL_MAJOR)
        assert not report.failures
        assert set(report.results) == set(self.MODEL_MAJOR)
        assert len(built) == 3
        assert list(annotate._CACHE) == [("art", 42, 32, 2)]

    def test_model_major_and_key_major_orders_agree(self, tmp_path):
        def sweep(plans, name):
            runner = ExperimentRunner(cache=ResultCache(tmp_path / name),
                                      verbose=False)
            return runner.run_many(plans)

        model_major = sweep(self.MODEL_MAJOR, "model")
        assert sweep(self.KEY_MAJOR, "key") == model_major
        # A run that reused its key's memoized trace equals
        # one on a cold memo.
        annotate.clear_cache()
        last = self.MODEL_MAJOR[-1]
        assert simulate_plan(last) == model_major[last]


class TestPolicyFlagsInThePlan:
    """A plan's ``policy_tag`` is the whole flag configuration: flags
    that differ never share a cache entry, and flags run on the model's
    own interconnect (node-scaled wires included)."""

    BASE = ExperimentPlan("I", "gzip", instructions=1500, warmup=300)
    CORE_FLAGS = ("transmission_line_lwires", "memory_dependence_speculation")

    def run(self, runner, name, flags=PolicyFlags()):
        """``name`` on gzip under ``flags``, as a one-variant batch."""
        variant = dict(model_name=name, policy_tag=flags.tag())
        return run_variants(runner, self.BASE, {name: variant},
                            ("gzip",))[name]

    def test_ablation_after_a_stock_run_is_not_served_the_stock_run(
            self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        stock = self.run(runner, "VII")
        ablated = self.run(runner, "VII",
                           PolicyFlags().without_lwire_uses())
        assert runner.last_report.summary.executed == 1
        assert runner.last_report.summary.cache_hits == 0
        assert ablated.runs[0].cycles != stock.runs[0].cycles

    def test_default_flags_keep_the_design_points_wires(self, tmp_path):
        name = "dp@n16:B144+L36:cw1"
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        flagged = self.run(runner, name, PolicyFlags())
        assert runner.last_report.summary.executed == 1
        stock = self.run(runner, name)
        assert runner.last_report.summary.cache_hits == 1
        assert flagged == stock
        # The executed run is the design point's own (16 nm energies),
        # not the same wire counts under Table 2's 45 nm values.
        uncached = runner_module.simulate_plan(
            ExperimentPlan(name, "gzip", instructions=1500, warmup=300))
        assert flagged.runs == (uncached,)

    def test_plan_interconnect_applies_its_flags_to_its_model(self):
        from repro.core.models import model

        name = "dp@n16:B144+L36:cw1"
        plan = ExperimentPlan(name, "gzip",
                              policy_tag="pw_store_data=0")
        config = plan.interconnect()
        base = model(name).config
        assert config.flags == PolicyFlags(pw_store_data=False)
        assert config.wires == base.wires
        assert config.cache_width_factor == base.cache_width_factor == 1
        assert config.wire_specs == base.wire_specs
        assert config.wire_specs is not None

    def test_core_flags_round_trip_through_their_tag(self):
        for flags in (PolicyFlags(transmission_line_lwires=True),
                      PolicyFlags(memory_dependence_speculation=True),
                      PolicyFlags(transmission_line_lwires=True,
                                  memory_dependence_speculation=True)):
            assert PolicyFlags.from_tag(flags.tag()) == flags
        assert (PolicyFlags(memory_dependence_speculation=True).tag()
                == "memory_dependence_speculation=1")

    def test_core_flags_reach_a_sixteen_cluster_run(self, tmp_path):
        tags = [PolicyFlags().tag(),
                *(PolicyFlags(**{name: True}).tag()
                  for name in self.CORE_FLAGS),
                PolicyFlags(**dict.fromkeys(self.CORE_FLAGS, True)).tag()]
        plans = [ExperimentPlan("VII", "gzip", num_clusters=16,
                                latency_scale=2.0, instructions=800,
                                warmup=200, policy_tag=tag)
                 for tag in tags]
        assert len({plan.cache_key() for plan in plans}) == len(plans)
        runner = ExperimentRunner(cache=ResultCache(tmp_path),
                                  verbose=False)
        runs = runner.run_many(plans)
        assert runner.last_report.summary.executed == len(plans)
        default, *flagged = (runs[plan].cycles for plan in plans)
        assert all(cycles != default for cycles in flagged)
        assert runner.run_many(plans) == runs
        assert runner.last_report.summary.executed == 0
