"""Every golden-corpus entry still produces its pinned digests.

A failure means a simulated number moved.  If the change was intended,
re-pin with ``tests/golden/golden.py`` and bump ``CACHE_VERSION``
(DESIGN §11); otherwise the message names the digests that moved.
"""

import pytest

from golden import assert_pinned, label_of, load
from repro.clusters.steering import SteeringHeuristic
from repro.faults import FaultSpec

#: Extras that count fault-induced degradation.
DEGRADATION = ("retransmissions", "corrupted_segments", "retry_escalations",
               "degraded_reroutes", "degraded_selections", "planes_killed")


@pytest.mark.parametrize("label", sorted(load()))
def test_entry_matches_its_pin(label):
    assert_pinned(label)


def test_corpus_is_not_vacuous():
    corpus = load()
    for name, entry in corpus.items():
        plan = entry["plan"]
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
    # Both steering scorers run: the loop below NUMPY_MIN_CLUSTERS and
    # numpy at or above it.
    clusters = {entry["plan"]["num_clusters"] for entry in corpus.values()}
    threshold = SteeringHeuristic.NUMPY_MIN_CLUSTERS
    assert min(clusters) < threshold <= max(clusters)
