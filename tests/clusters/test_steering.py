"""Tests for the dynamic steering heuristic and criticality predictor."""

import os
import random
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


class TestScoringPaths:
    """The numpy scorer (at NUMPY_MIN_CLUSTERS and up) and the Python
    loop produce the same floats, so the path never changes a choice."""

    @pytest.mark.parametrize("seed", range(5))
    def test_numpy_and_loop_scores_identical(self, seed):
        rng = random.Random(seed)
        n = SteeringHeuristic.NUMPY_MIN_CLUSTERS * 2
        clusters = make_clusters(n)
        steer = SteeringHeuristic(clusters, HierarchicalTopology(n))
        assert steer._np is not None
        for pc in range(0x400000, 0x400100, 4):
            steer.train_criticality(pc, [pc + 4])
        for _ in range(3):
            steer.note_degraded_link(rng.randrange(n))
        for _ in range(50):
            for cluster in clusters:
                cluster.free_int_iq = rng.randrange(cluster.iq_size + 1)
                cluster.free_fp_iq = rng.randrange(cluster.iq_size + 1)
            producers = []
            for reg in range(rng.randrange(4)):
                producer = make_instr(rng.randrange(100),
                                      pc=0x400000 + 4 * rng.randrange(64))
                producer.cluster = rng.randrange(n)
                producers.append((reg, producer))
            op = rng.choice(list(OpClass))
            assert steer._score_np(producers, op) == \
                steer._score(producers, op)


def test_numpy_loads_only_for_large_machines():
    # The sweep runner's parent process never simulates, so it must not
    # pay for numpy; neither do machines below NUMPY_MIN_CLUSTERS.
    script = (
        "import sys\n"
        "import repro.harness.runner\n"
        "from repro.core.models import model\n"
        "from repro.core.simulation import build_processor\n"
        "assert 'numpy' not in sys.modules, 'runner import'\n"
        "build_processor(model('X').config, 'gzip', num_clusters=4)\n"
        "assert 'numpy' not in sys.modules, '4 clusters'\n"
        "build_processor(model('X').config, 'gzip', num_clusters=16)\n"
        "assert 'numpy' in sys.modules, '16 clusters'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
