"""Every golden-corpus entry still produces its pinned digests.

A failure means a simulated number (or a node's scale factor) moved.
If the change was intended, re-pin with ``tests/golden/golden.py``
(DESIGN §11); otherwise the message names the digests that moved.
"""

import pytest

from golden import (
    assert_pinned,
    assert_scaling_pinned,
    label_of,
    load,
    load_scaling,
    scaling,
)
from repro.faults import FaultSpec

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
