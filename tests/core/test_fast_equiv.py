"""Reference runs across the simulator's internal execution paths.

Each test checks one golden-corpus entry (``tests/golden``).  Its digests
were pinned while an independent scalar implementation of the same model
agreed with this one bit for bit, so the corpus stands in for that
reference.  The entries cover the dimensions where the simulator takes
different internal paths: wire compositions (which planes exist drives
selection), cluster counts (16 crosses
``SteeringHeuristic.NUMPY_MIN_CLUSTERS``), fault injection (the
network's keyed queue path), telemetry (event stream and metrics
snapshot) and memory-dependence speculation (the LSQ's wake filtering).
"""

import pytest

from golden import (FAULT_SPECS, TRACED_FAULTS, assert_digest, assert_pinned,
                    label, measured)
from repro.core.models import MODEL_NAMES


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
        assert_pinned(label(config={"memory_dependence_speculation": True}))


class TestFaultedRuns:
    """Fault injection takes the network's keyed queue path."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    def test_fault_specs_match(self, spec):
        assert_pinned(label(fault_spec=spec))

    def test_degraded_sixteen_clusters_match(self):
        assert_pinned(label(num_clusters=16, fault_spec="kill=PW@*@500"))


class TestTelemetry:
    def test_event_streams_identical(self):
        assert_digest(label(traced=True), "events")

    def test_metrics_snapshots_identical(self):
        assert_digest(label(traced=True), "metrics")

    def test_traced_run_equals_untraced_run(self):
        # Telemetry observes without perturbing.
        assert measured(label(traced=True)).run == measured(label()).run

    def test_faulted_event_streams_identical(self):
        assert_pinned(label(fault_spec=TRACED_FAULTS, traced=True))
