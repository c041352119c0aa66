"""Tests for the dynamic steering heuristic and criticality predictor."""

import ast
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


# -- one-pass scoring equals the accumulate-then-argmax scorer ---------------


def reference_choice(heur, instr, producers):
    """(index of the cluster ``choose`` must return, whether it spilled
    from the heaviest one), or None when all are full.

    The reference scorer accumulates each criterion into a score list,
    then takes the argmax over (score, free IQ entries, lowest index).
    """
    clusters = heur.clusters
    op = instr.rec.op
    has_dest = instr.rec.dest >= 0
    if not any(c.can_accept(op, has_dest) for c in clusters):
        return None
    n = len(clusters)
    w = heur.weights
    scores = [0.0] * n
    for _, producer in producers:
        home = producer.cluster
        if 0 <= home < n:
            for c in range(n):
                scores[c] += w.dependence * heur._affinity[home][c]
    if len(producers) > 1:
        critical = heur.criticality.pick_critical(
            [p.rec.pc for _, p in producers])
        if critical is not None:
            home = producers[critical][1].cluster
            if 0 <= home < n:
                for c in range(n):
                    scores[c] += w.critical_bonus * heur._affinity[home][c]
    free = [c.free_fp_iq if op._fp else c.free_int_iq for c in clusters]
    for i in range(n):
        scores[i] += w.load_balance * (free[i] / clusters[i].iq_size)
    if op._mem:
        for i in range(n):
            scores[i] += w.cache_proximity * heur._cache_affinity[i]
    if heur._any_degraded:
        for i in range(n):
            scores[i] -= heur._link_penalty[i]
    best = 0
    for i in range(1, n):
        if scores[i] > scores[best] or (scores[i] == scores[best]
                                        and free[i] > free[best]):
            best = i
    if clusters[best].can_accept(op, has_dest):
        return best, False
    return next(j for j in heur._orders[best]
                if clusters[j].can_accept(op, has_dest)), True


@pytest.mark.parametrize("n, topology", [(4, CrossbarTopology),
                                         (16, HierarchicalTopology)])
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_choice_equals_reference(n, topology, seed):
    """Random cluster states, producer sets and a trained criticality
    table: ``choose`` picks what the reference scorer picks, call after
    call on one heuristic (so its memo is reused across states)."""
    rng = random.Random(f"steer:{n}:{seed}")
    pcs = [0x400000 + 4 * i for i in range(6)]
    crit = CriticalityPredictor(64)
    for _ in range(40):
        crit.train(rng.choice(pcs), rng.sample(pcs, 2))
    iq = rng.choice((2, 4, 15))
    clusters = make_clusters(n, iq=iq, regs=rng.choice((2, 32)))
    heur = SteeringHeuristic(clusters, topology(n), criticality=crit)
    ops = (OpClass.IALU, OpClass.FPALU, OpClass.LOAD, OpClass.STORE)
    spills = []
    for step in range(600):
        if seed % 2 and step in (200, 400):
            heur.note_degraded_link(rng.randrange(n))
        for cluster in clusters:
            # Small ranges make ties and full clusters common.
            cluster.free_int_iq = rng.randint(0, iq)
            cluster.free_fp_iq = rng.randint(0, iq)
            cluster.free_int_regs = rng.randint(0, 2)
            cluster.free_fp_regs = rng.randint(0, 2)
        producers = []
        for k in range(rng.randint(0, 3)):
            producer = make_instr(k, pc=rng.choice(pcs))
            producer.cluster = rng.randrange(n)
            producers.append((k + 1, producer))
        instr = make_instr(10, op=rng.choice(ops), dest=rng.choice((-1, 5)))
        expected = reference_choice(heur, instr, producers)
        chosen = heur.choose(instr, producers)
        if expected is None:
            assert chosen is None, step
        else:
            assert chosen is not None and chosen.index == expected[0], step
            spills.append(expected[1])
    assert (heur.steered, heur.overflowed) == (
        spills.count(False), spills.count(True))
    assert len(spills) > 300
