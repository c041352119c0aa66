"""Tests for the wire-selection policy (the paper's Section 4 mechanisms)."""

import pytest

from repro.interconnect.message import (
    LWIRE_BITS,
    MISPREDICT_BITS,
    MS_ADDRESS_BITS,
    OPERAND_BITS,
    PARTIAL_ADDRESS_BITS,
    Transfer,
    TransferKind,
)
from repro.interconnect.plane import LinkComposition
from repro.interconnect.selection import PolicyFlags, WireSelector
from repro.wires import WireClass


def make_selector(wires, flags=None, telemetry=None):
    return WireSelector(LinkComposition(wires), flags, telemetry=telemetry)


def heterogeneous(telemetry=None):
    return make_selector({
        WireClass.B: 144, WireClass.PW: 288, WireClass.L: 36,
    }, telemetry=telemetry)


class TestMispredictSignals:
    def test_mispredict_rides_lwires(self):
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.MISPREDICT, src="c0", dst="cache")
        segs = sel.select(t, cycle=0)
        assert len(segs) == 1
        assert segs[0].wire_class is WireClass.L
        assert segs[0].bits == MISPREDICT_BITS

    def test_falls_back_to_bulk_without_lwires(self):
        sel = make_selector({WireClass.B: 144})
        t = Transfer(kind=TransferKind.MISPREDICT, src="c0", dst="cache")
        segs = sel.select(t, cycle=0)
        assert segs[0].wire_class is WireClass.B

    def test_disabled_flag_uses_bulk(self):
        sel = make_selector(
            {WireClass.B: 144, WireClass.L: 36},
            PolicyFlags(lwire_mispredict=False),
        )
        t = Transfer(kind=TransferKind.MISPREDICT, src="c0", dst="cache")
        assert sel.select(t, 0)[0].wire_class is WireClass.B


class TestPartialAddresses:
    def test_address_splits_ls_on_l_ms_on_bulk(self):
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.LOAD_ADDRESS, src="c0", dst="cache")
        segs = sel.select(t, cycle=0)
        assert len(segs) == 2
        lead, rest = segs
        assert lead.wire_class is WireClass.L
        assert lead.bits == PARTIAL_ADDRESS_BITS
        assert lead.is_leading_slice and not lead.is_final_slice
        assert rest.bits == MS_ADDRESS_BITS
        assert rest.is_final_slice

    def test_store_addresses_also_split(self):
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.STORE_ADDRESS, src="c0", dst="cache")
        assert len(sel.select(t, 0)) == 2

    def test_no_split_without_lwires(self):
        sel = make_selector({WireClass.B: 144})
        t = Transfer(kind=TransferKind.LOAD_ADDRESS, src="c0", dst="cache")
        segs = sel.select(t, 0)
        assert len(segs) == 1
        assert segs[0].bits == OPERAND_BITS


class TestNarrowOperands:
    def _transfer(self, predicted, actual):
        return Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1",
                        narrow_predicted=predicted, narrow_actual=actual)

    def test_predicted_narrow_rides_lwires(self):
        sel = heterogeneous()
        segs = sel.select(self._transfer(True, True), 0)
        assert len(segs) == 1
        assert segs[0].wire_class is WireClass.L
        assert segs[0].bits == LWIRE_BITS

    def test_unpredicted_uses_bulk(self):
        sel = heterogeneous()
        segs = sel.select(self._transfer(False, True), 0)
        assert segs[0].wire_class is WireClass.B
        assert segs[0].bits == OPERAND_BITS

    def test_narrow_mispredict_reissues_full_width(self, traced):
        """Tag went out on L-Wires but the value is wide: the full value
        follows on the bulk plane after a detection cycle."""
        sel = heterogeneous(traced.telemetry())
        segs = sel.select(self._transfer(True, False), 0)
        assert len(segs) == 2
        assert segs[0].wire_class is WireClass.L
        assert not segs[0].is_final_slice
        assert segs[1].bits == OPERAND_BITS
        assert segs[1].submit_delay == WireSelector.NARROW_MISPREDICT_PENALTY
        assert traced.count(sel, "wire_selected") == traced.count(
            sel, "wire_selected", reason="narrow_mispredict") == 1

    def test_narrow_load_data_eligible(self):
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.LOAD_DATA, src="cache", dst="c1",
                     narrow_predicted=True, narrow_actual=True)
        assert sel.select(t, 0)[0].wire_class is WireClass.L


class TestPWSteering:
    def test_ready_at_dispatch_operand_rides_pw(self):
        """The paper's first criterion: operands already ready in a remote
        register file at dispatch tolerate PW latency."""
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1",
                     ready_at_dispatch=True)
        assert sel.select(t, 0)[0].wire_class is WireClass.PW

    def test_store_data_rides_pw(self):
        sel = heterogeneous()
        t = Transfer(kind=TransferKind.STORE_DATA, src="c0", dst="cache")
        assert sel.select(t, 0)[0].wire_class is WireClass.PW

    def test_pw_rules_disabled(self):
        sel = make_selector(
            {WireClass.B: 144, WireClass.PW: 288},
            PolicyFlags(pw_ready_operand=False, pw_store_data=False,
                        pw_load_balance=False),
        )
        ready = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1",
                         ready_at_dispatch=True)
        data = Transfer(kind=TransferKind.STORE_DATA, src="c0", dst="cache")
        assert sel.select(ready, 0)[0].wire_class is WireClass.B
        assert sel.select(data, 0)[0].wire_class is WireClass.B

    def test_pw_only_link_carries_everything_on_pw(self):
        """Model II: no B plane, bulk traffic defaults to PW."""
        sel = make_selector({WireClass.PW: 288})
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        assert sel.select(t, 0)[0].wire_class is WireClass.PW


class TestLoadBalance:
    def test_burst_on_b_diverts_to_pw(self):
        sel = make_selector({WireClass.B: 144, WireClass.PW: 288})
        for _ in range(12):
            sel.record_injection(0, WireClass.B)
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        assert sel.select(t, 0)[0].wire_class is WireClass.PW

    def test_balanced_traffic_stays_on_bulk(self):
        sel = make_selector({WireClass.B: 144, WireClass.PW: 288})
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        assert sel.select(t, 0)[0].wire_class is WireClass.B

    def test_no_divert_without_pw_plane(self):
        sel = make_selector({WireClass.B: 144})
        for _ in range(20):
            sel.record_injection(0, WireClass.B)
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        assert sel.select(t, 0)[0].wire_class is WireClass.B


class TestPolicyFlags:
    def test_without_lwire_uses(self):
        flags = PolicyFlags().without_lwire_uses()
        assert not flags.lwire_mispredict
        assert not flags.lwire_partial_address
        assert not flags.lwire_narrow
        assert flags.pw_ready_operand  # untouched

    def test_defaults_enable_everything(self):
        flags = PolicyFlags()
        assert flags.lwire_mispredict and flags.lwire_partial_address
        assert flags.lwire_narrow and flags.pw_ready_operand
        assert flags.pw_store_data and flags.pw_load_balance

    def test_load_balance_rule_is_the_papers_constant(self):
        # Section 4's 5-cycle window and threshold of 10 are not flags.
        with pytest.raises(ValueError, match="unknown policy flag"):
            PolicyFlags.from_tag("load_balance_window=5")
        sel = WireSelector(LinkComposition({WireClass.B: 144,
                                            WireClass.PW: 288}))
        assert sel._detector.traffic.window == 5
        assert sel._detector.threshold == 10
