"""Every golden-corpus entry still produces its pinned digests.

A failure means a simulated number (or a node's scale factor) moved.
If the change was intended, re-pin with ``tests/golden/golden.py``
(DESIGN §11); otherwise the message names the digests that moved.
"""

import pytest

from golden import (
    FAULT_SPECS,
    assert_pinned,
    assert_scaling_pinned,
    label,
    label_of,
    load,
    load_scaling,
    measured,
    scaling,
)
from repro.core.models import MODEL_NAMES
from repro.faults import FaultSpec
from repro.interconnect.selection import PolicyFlags

#: Extras that count fault-induced degradation.
DEGRADATION = ("retransmissions", "corrupted_segments", "retry_escalations",
               "degraded_reroutes", "degraded_selections", "planes_killed")


@pytest.mark.parametrize("label", sorted(load()))
def test_entry_matches_its_pin(label):
    assert_pinned(label)


@pytest.mark.parametrize("label", sorted(load_scaling()))
def test_node_scaling_matches_its_pin(label):
    assert_scaling_pinned(label)


def test_every_node_and_profile_is_pinned():
    assert sorted(load_scaling()) == sorted(scaling())


TRACED = sorted(name for name, entry in load().items() if entry.get("traced"))


def test_four_traced_entries():
    assert len(TRACED) == 4


@pytest.mark.parametrize("label", TRACED)
def test_traced_events_have_sorted_unique_names(label):
    # The emit path checks names once per site and pairs values with
    # them on every event; a traced entry's stream shows both held.
    events = measured(label).events
    assert events
    for event in events:
        assert event.names == tuple(sorted(set(event.names))), event
        assert len(event.names) == len(event.values), event


def test_traced_entries_pin_their_untraced_twins_run():
    # Telemetry observes without perturbing: a traced entry's run
    # digest is that of the same plan run untraced.
    corpus = load()
    twins = {name: label_of({**entry, "traced": False})
             for name, entry in corpus.items() if entry.get("traced")}
    twins = {name: twin for name, twin in twins.items() if twin in corpus}
    assert len(twins) >= 2
    for name, twin in twins.items():
        assert (corpus[name]["digests"]["run"]
                == corpus[twin]["digests"]["run"]), name


def test_corpus_is_not_vacuous():
    corpus = load()
    for name, entry in corpus.items():
        plan = entry["plan"]
        if plan["policy_tag"] != "default":
            # Policy flags reach the simulation.
            twin = label_of({**entry,
                             "plan": {**plan, "policy_tag": "default"}})
            assert entry["run"] != corpus[twin]["run"], name
        if not plan["fault_spec"]:
            continue
        # Every fault changes the run; kills and bit errors also show in
        # the degradation counters (derating only stretches latencies).
        twin = label_of({**entry, "plan": {**plan, "fault_spec": ""}})
        assert entry["run"] != corpus[twin]["run"], name
        spec = FaultSpec.parse(plan["fault_spec"])
        if spec.kills or spec.ber:
            extra = entry["run"]["extra"]
            assert any(extra[key] > 0 for key in DEGRADATION), name
    # Both machine sizes stay pinned: the 4-cluster crossbar and the
    # 16-cluster hierarchical topology.
    clusters = {entry["plan"]["num_clusters"] for entry in corpus.values()}
    assert {4, 16} <= clusters


def test_corpus_covers_the_engine_paths():
    # Entries whose inputs take their own paths through the simulator:
    # Model X on traffic mixes from cache-heavy to ILP-heavy, a second
    # workload seed, memory-dependence speculation (the LSQ's wake
    # filtering), every wire composition (which planes exist drives
    # selection), both machine sizes, and each fault spec (the
    # network's kill, reroute and retransmission hooks).
    required = [label(benchmark=name)
                for name in ("gzip", "art", "mcf", "gcc")]
    required.append(label(seed=7))
    required.append(label(policy_tag=PolicyFlags(
        memory_dependence_speculation=True).tag()))
    required += [label(name) for name in MODEL_NAMES]
    required += [label(name, num_clusters=16) for name in ("III", "X")]
    required += [label(fault_spec=spec) for spec in FAULT_SPECS]
    required.append(label(num_clusters=16, fault_spec="kill=PW@*@500"))
    missing = [name for name in required if name not in load()]
    assert not missing, f"corpus lost entries: {missing}"
