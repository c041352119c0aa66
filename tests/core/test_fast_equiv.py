"""Reference runs across the simulator's internal execution paths.

Each test checks one golden-corpus entry (``tests/golden``).  Its digests
were pinned while an independent scalar implementation of the same model
agreed with this one bit for bit, so the corpus stands in for that
reference.  The entries cover the dimensions where the simulator takes
different internal paths: wire compositions (which planes exist drives
selection), cluster counts, fault injection (the network's kill,
reroute and retransmission hooks) and memory-dependence speculation
(the LSQ's wake filtering).  Traced entries are checked corpus-wide by
``test_golden.py``.
"""

import pytest

from golden import FAULT_SPECS, assert_pinned, label
from repro.core.models import MODEL_NAMES
from repro.interconnect.selection import PolicyFlags


class TestHealthyRuns:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_model_matches(self, name):
        assert_pinned(label(name))

    @pytest.mark.parametrize("bench", ["gzip", "art", "mcf", "gcc"])
    def test_benchmarks_match(self, bench):
        assert_pinned(label(benchmark=bench))

    @pytest.mark.parametrize("name", ["III", "X"])
    def test_sixteen_clusters_match(self, name):
        assert_pinned(label(name, num_clusters=16))

    def test_different_seed_matches(self):
        assert_pinned(label(seed=7))

    def test_memory_dependence_speculation_matches(self):
        assert_pinned(label(policy_tag=PolicyFlags(
            memory_dependence_speculation=True).tag()))


class TestFaultedRuns:
    """Fault injection runs the network's kill and retry hooks."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    def test_fault_specs_match(self, spec):
        assert_pinned(label(fault_spec=spec))

    def test_degraded_sixteen_clusters_match(self):
        assert_pinned(label(num_clusters=16, fault_spec="kill=PW@*@500"))

