"""Tests for the dynamic steering heuristic and criticality predictor."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.clusters.cluster import Cluster
from repro.clusters.criticality import CriticalityPredictor
from repro.clusters.steering import SteeringHeuristic, SteeringWeights
from repro.core.instruction import DynInstr
from repro.interconnect.topology import CrossbarTopology, HierarchicalTopology
from repro.workloads.trace import InstructionRecord, OpClass

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_instr(seq, op=OpClass.IALU, dest=5, pc=None):
    rec = InstructionRecord(pc=pc if pc is not None else 0x400000 + 4 * seq,
                            op=op, dest=dest, srcs=(1,))
    return DynInstr(seq, rec)


def make_clusters(n=4, iq=15, regs=32):
    return [Cluster(i, f"c{i}", iq, regs) for i in range(n)]


@pytest.fixture
def steering():
    clusters = make_clusters()
    return SteeringHeuristic(clusters, CrossbarTopology(4)), clusters


class TestDependenceSteering:
    def test_follows_single_producer(self, steering):
        heur, clusters = steering
        producer = make_instr(0)
        producer.cluster = 2
        consumer = make_instr(1)
        chosen = heur.choose(consumer, [(1, producer)])
        assert chosen.index == 2

    def test_majority_producer_cluster_wins(self, steering):
        heur, clusters = steering
        p1, p2, p3 = make_instr(0), make_instr(1), make_instr(2)
        p1.cluster = p2.cluster = 1
        p3.cluster = 3
        consumer = make_instr(3)
        chosen = heur.choose(consumer, [(1, p1), (2, p2), (3, p3)])
        assert chosen.index == 1

    def test_no_producers_balances_load(self, steering):
        heur, clusters = steering
        # Fill cluster 0 partially; an independent instruction should
        # prefer an emptier cluster.
        for i in range(10):
            clusters[0].admit(make_instr(100 + i))
        chosen = heur.choose(make_instr(0), [])
        assert chosen.index != 0


class TestResourceFallback:
    def test_full_cluster_overflows_to_neighbor(self):
        clusters = make_clusters(iq=2, regs=2)
        heur = SteeringHeuristic(clusters, CrossbarTopology(4))
        producer = make_instr(0)
        producer.cluster = 1
        clusters[1].admit(make_instr(10))
        clusters[1].admit(make_instr(11))
        chosen = heur.choose(make_instr(1), [(1, producer)])
        assert chosen is not None
        assert chosen.index != 1
        assert heur.overflowed == 1

    def test_all_full_returns_none(self):
        clusters = make_clusters(iq=1, regs=1)
        heur = SteeringHeuristic(clusters, CrossbarTopology(4))
        for i, cluster in enumerate(clusters):
            cluster.admit(make_instr(10 + i))
        assert heur.choose(make_instr(0), []) is None

    def test_no_room_scores_nothing(self, monkeypatch):
        clusters = make_clusters(iq=1, regs=1)
        heur = SteeringHeuristic(clusters, CrossbarTopology(4))
        for i, cluster in enumerate(clusters):
            cluster.admit(make_instr(10 + i))
        monkeypatch.setattr(heur, "_score", None)  # a call would raise
        assert heur.choose(make_instr(0), []) is None
        assert (heur.steered, heur.overflowed) == (0, 0)

    def test_a_run_scores_each_admitted_instruction_once(self, monkeypatch):
        """Every ``choose`` that scores admits its instruction: scoring
        calls equal ``Cluster.admit`` calls on a real 4-cluster run."""
        from repro.core.models import model
        from repro.core.simulation import build_processor

        calls = {"score": 0, "admit": 0}
        score, admit = SteeringHeuristic._score, Cluster.admit

        def counted_score(self, producers, op):
            calls["score"] += 1
            return score(self, producers, op)

        def counted_admit(self, instr):
            calls["admit"] += 1
            return admit(self, instr)

        monkeypatch.setattr(SteeringHeuristic, "_score", counted_score)
        monkeypatch.setattr(Cluster, "admit", counted_admit)
        cpu = build_processor(model("I").config, "mcf")
        cpu.run(800, warmup=200)
        assert calls["admit"] > 800
        assert calls["score"] == calls["admit"]


class TestCacheProximity:
    def test_hierarchical_loads_prefer_cache_group(self):
        """On the 16-cluster ring the cache hangs off group 0, so loads
        with no other pull steer there."""
        clusters = make_clusters(16)
        heur = SteeringHeuristic(clusters, HierarchicalTopology(16))
        load = make_instr(0, op=OpClass.LOAD)
        chosen = heur.choose(load, [])
        assert chosen.index in (0, 1, 2, 3)

    def test_crossbar_proximity_uniform(self, steering):
        heur, clusters = steering
        load = make_instr(0, op=OpClass.LOAD)
        chosen = heur.choose(load, [])
        assert chosen is not None  # all clusters equidistant; any is fine


class TestHierarchicalAffinity:
    def test_consumer_lands_in_producer_group(self):
        clusters = make_clusters(16)
        heur = SteeringHeuristic(clusters, HierarchicalTopology(16))
        producer = make_instr(0)
        producer.cluster = 9  # group 2
        consumer = make_instr(1)
        chosen = heur.choose(consumer, [(1, producer)])
        assert chosen.index // 4 == 2


class TestCriticalityPredictor:
    def test_training_raises_criticality(self):
        pred = CriticalityPredictor(64)
        for _ in range(3):
            pred.train(0x400000, [0x400004])
        assert pred.is_critical(0x400000)
        assert not pred.is_critical(0x400004)

    def test_pick_critical_prefers_highest_counter(self):
        pred = CriticalityPredictor(64)
        pred.train(0x400000, [])
        pred.train(0x400000, [])
        pred.train(0x400000, [])
        pred.train(0x400004, [])
        pred.train(0x400004, [])
        assert pred.pick_critical([0x400004, 0x400000]) == 1

    def test_pick_critical_none_when_untrained(self):
        pred = CriticalityPredictor(64)
        assert pred.pick_critical([0x400000, 0x400004]) is None

    def test_counter_decay_for_noncritical(self):
        pred = CriticalityPredictor(64)
        for _ in range(3):
            pred.train(0x400000, [])
        pred.train(0x400004, [0x400000])
        pred.train(0x400004, [0x400000])
        assert pred.pick_critical([0x400000, 0x400004]) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalityPredictor(100)
        with pytest.raises(ValueError):
            CriticalityPredictor(64, threshold=5)

    def test_critical_producer_attracts_consumer(self):
        clusters = make_clusters(4)
        crit = CriticalityPredictor(64)
        for _ in range(3):
            crit.train(0x400000, [0x400004])
        heur = SteeringHeuristic(
            clusters, CrossbarTopology(4),
            SteeringWeights(dependence=1.0, critical_bonus=5.0),
            criticality=crit,
        )
        critical_producer = make_instr(0, pc=0x400000)
        critical_producer.cluster = 3
        other = make_instr(1, pc=0x400004)
        other.cluster = 1
        consumer = make_instr(2)
        chosen = heur.choose(
            consumer, [(1, critical_producer), (2, other)]
        )
        assert chosen.index == 3


class TestValidation:
    def test_needs_clusters(self):
        with pytest.raises(ValueError):
            SteeringHeuristic([], CrossbarTopology(4))


def test_repro_needs_no_numpy():
    # The package has no runtime dependency.  Static leg: no module
    # imports numpy (simlint resolves names only through a module's
    # import statements, so this covers every numpy call it could see).
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "numpy", \
                    f"{path}:{node.lineno} imports {name}"
    # Runtime leg: with numpy unimportable, every module imports and a
    # faulted, gated, traced run completes at 4 and at 16 clusters.
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "from repro.harness import ExperimentPlan\n"
        "from repro.harness.runner import simulate_plan\n"
        "from repro.telemetry import Telemetry\n"
        "for n in (4, 16):\n"
        "    plan = ExperimentPlan('X', 'gzip', instructions=500,\n"
        "                          warmup=100, num_clusters=n,\n"
        "                          fault_spec='kill=PW@*@200',\n"
        "                          gating_policy='idle')\n"
        "    simulate_plan(plan, telemetry=Telemetry())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
