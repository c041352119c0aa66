"""The accounting identities every run checks before it reports.

Each test plants one bookkeeping defect with a monkeypatch and expects
the run to end in :class:`AccountingError` instead of a wrong result.
The healthy side is the golden corpus: every entry passes the checks.
"""

import pytest

from golden import label, load, simulate
from repro.core.models import model
from repro.core.processor import ClusteredProcessor
from repro.core.simulation import (
    AccountingError,
    build_processor,
    check_accounting,
)
from repro.interconnect.stats import InterconnectStats
from repro.power.manager import PlanePowerManager

#: A 16 nm design point: its wire catalog differs from Table 2.
DP16 = "dp@n16:B144+L36"
#: A gated entry whose L planes gate during warmup.
GATED = label(gating_policy="idle:drowsy=16,gate=64")


def _reset_to_table2(self):
    # The warmup-reset defect: the fresh counters forget the run's
    # node-scaled catalog and weigh traffic with Table 2 energies.
    self.__init__()


def test_table2_reset_fails_the_dynamic_energy_identity(monkeypatch):
    monkeypatch.setattr(InterconnectStats, "reset", _reset_to_table2)
    with pytest.raises(AccountingError) as caught:
        simulate(load()[label(DP16)])
    message = str(caught.value)
    assert message.startswith("dynamic-energy identity failed on gzip: ")
    assert " reported against " in message and message.endswith(" expected")


def test_unzeroed_gated_cycles_fail_the_residency_identity(monkeypatch):
    begin_window = PlanePowerManager.begin_window

    def keep_gated_cycles(self, cycle):
        for slot in self._slots:
            self._settle(slot, max(cycle, slot.settled), emit=False)
        warmup = [slot.gated_cycles for slot in self._slots]
        begin_window(self, cycle)
        for slot, gated in zip(self._slots, warmup, strict=True):
            slot.gated_cycles = gated

    monkeypatch.setattr(PlanePowerManager, "begin_window",
                        keep_gated_cycles)
    with pytest.raises(AccountingError, match="residency"):
        simulate(load()[GATED])


def test_unreset_commit_count_fails_the_commit_window_identity(
        monkeypatch):
    # The warmup's commits leak into the measured window.
    reset_measurement = ClusteredProcessor.reset_measurement

    def keep_committed(self):
        committed = self.stats.committed
        reset_measurement(self)
        self.stats.committed = committed

    monkeypatch.setattr(ClusteredProcessor, "reset_measurement",
                        keep_committed)
    with pytest.raises(AccountingError) as caught:
        simulate(load()[label("I")])
    assert str(caught.value).startswith(
        "commit-window identity failed on gzip: ")


def test_catalog_mismatch_fails_the_leakage_identity():
    # No traffic yet, so only the leakage identity can tell a network
    # built at 45 nm from one the 16 nm catalog describes.
    cpu = build_processor(model("X").config, "gzip")
    check_accounting(model("X").config, cpu.network, "gzip", 1000)
    with pytest.raises(AccountingError, match="leakage identity failed"):
        check_accounting(model(DP16).config, cpu.network, "gzip", 1000)
