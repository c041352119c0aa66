"""Suite-health checks: every benchmark profile behaves sanely end to end.

One short timing run per benchmark on the baseline machine; guards
against a profile regressing into a degenerate stream (deadlocked IPC,
absurd miss rates, empty branch mix) without anyone noticing.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import build_processor
from repro.workloads.spec2k import BENCHMARK_NAMES


@pytest.fixture(scope="module")
def health():
    """Run every benchmark once and collect vitals."""
    vitals = {}
    for name in BENCHMARK_NAMES:
        cpu = build_processor(model("I").config, name)
        stats = cpu.run(1500, warmup=500)
        vitals[name] = {
            "ipc": stats.ipc,
            "l1_miss": cpu.hierarchy.l1.miss_rate,
            "l2_miss": cpu.hierarchy.l2.miss_rate,
            "bpred": cpu.fetch.branch_accuracy,
            "branches": cpu.fetch.predictor_counts()[0],
            "loads": stats.loads,
        }
    return vitals


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestBenchmarkVitals:
    def test_ipc_in_plausible_range(self, health, name):
        assert 0.05 < health[name]["ipc"] < 6.0

    def test_memory_system_exercised(self, health, name):
        assert health[name]["loads"] > 100
        assert 0.0 <= health[name]["l1_miss"] < 0.8

    def test_branch_predictor_functional(self, health, name):
        assert health[name]["branches"] > 20
        assert health[name]["bpred"] > 0.6


class TestSuiteAggregates:
    def test_mcf_is_slowest_class(self, health):
        """The memory monster must sit in the suite's bottom quartile."""
        ipcs = sorted(v["ipc"] for v in health.values())
        assert health["mcf"]["ipc"] <= ipcs[len(ipcs) // 4]

    def test_suite_has_ipc_diversity(self, health):
        ipcs = [v["ipc"] for v in health.values()]
        assert max(ipcs) / min(ipcs) > 3.0

    def test_mcf_misses_the_l2_most(self, health):
        """Only mcf's working set exceeds the 8 MB L2, so its L2 miss
        rate must top the suite."""
        assert health["mcf"]["l2_miss"] == max(
            v["l2_miss"] for v in health.values()
        )

    def test_aggregate_am_in_band(self, health):
        am = sum(v["ipc"] for v in health.values()) / len(health)
        # Wide band: short windows are noisy; the bench harness holds
        # the tight comparisons.
        assert 0.6 < am < 2.5
