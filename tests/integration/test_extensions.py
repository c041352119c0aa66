"""Integration tests for the future-work extensions.

* transmission-line L-Wires (latency immune to wire-constraint scaling);
* frequent-value compaction on the L-Wire plane.
"""

from dataclasses import replace

from repro.core.config import InterconnectConfig, wire_counts
from repro.core.models import model
from repro.core.simulation import build_processor
from repro.interconnect.selection import PolicyFlags
from repro.interconnect.topology import CrossbarTopology
from repro.wires import WireClass


class TestTransmissionLineLWires:
    def test_lwire_latency_immune_to_scaling(self):
        rc = CrossbarTopology(4, latency_scale=2.0)
        tl = CrossbarTopology(4, latency_scale=2.0,
                              transmission_line_lwires=True)
        assert rc.path("c0", "c1").latency[WireClass.L] == 2
        assert tl.path("c0", "c1").latency[WireClass.L] == 1
        # B-Wires scale in both.
        assert tl.path("c0", "c1").latency[WireClass.B] == 4

    def test_no_effect_without_scaling(self):
        tl = CrossbarTopology(4, transmission_line_lwires=True)
        assert tl.path("c0", "c1").latency[WireClass.L] == 1

    def test_config_threads_the_flag(self):
        flags = PolicyFlags(transmission_line_lwires=True)
        cpu = build_processor(replace(model("VII").config, flags=flags),
                              "gzip", latency_scale=2.0)
        assert cpu.topology.path("c0", "c1").latency[WireClass.L] == 1

    def test_tl_lwires_never_slower(self):
        """At doubled RC latencies, transmission-line L-Wires give at
        least the performance of RC L-Wires."""
        def run(tl):
            flags = PolicyFlags(transmission_line_lwires=tl)
            cpu = build_processor(
                replace(model("VII").config, flags=flags), "gzip",
                latency_scale=2.0,
            )
            return cpu.run(3000, warmup=1000).ipc

        assert run(True) >= run(False) * 0.995


class TestFrequentValueCompaction:
    def _build(self, enabled):
        flags = PolicyFlags(lwire_frequent_value=enabled)
        icfg = InterconnectConfig(wires=wire_counts(B=144, L=36),
                                  flags=flags)
        return build_processor(icfg, "gzip")

    def test_disabled_by_default(self):
        cpu = build_processor(model("VII").config, "gzip")
        assert cpu.frequent_values is None

    def test_fv_transfers_happen_when_enabled(self):
        cpu = self._build(True)
        cpu.run(4000, warmup=1000)
        assert cpu.frequent_values is not None
        assert cpu.frequent_values.observations > 0
        assert cpu.network.selector.fv_transfers > 0

    def test_fv_raises_lwire_traffic(self):
        off = self._build(False)
        off.run(4000, warmup=1000)
        on = self._build(True)
        on.run(4000, warmup=1000)
        assert (on.network.stats.transfers_on(WireClass.L)
                > off.network.stats.transfers_on(WireClass.L))

    def test_fv_does_not_break_execution(self):
        cpu = self._build(True)
        stats = cpu.run(4000, warmup=1000)
        assert stats.committed >= 4000

    def test_flag_composition_with_other_policies(self):
        flags = replace(PolicyFlags().without_lwire_uses(),
                        lwire_frequent_value=True)
        icfg = InterconnectConfig(wires=wire_counts(B=144, L=36),
                                  flags=flags)
        cpu = build_processor(icfg, "gzip")
        cpu.run(3000, warmup=800)
        # Only FV transfers may use L-Wires in this configuration (some
        # selected transfers are still queued when the run stops, so
        # granted <= selected).
        l_transfers = cpu.network.stats.transfers_on(WireClass.L)
        assert 0 < l_transfers <= cpu.network.selector.fv_transfers
