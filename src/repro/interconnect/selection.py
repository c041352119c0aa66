"""Wire-selection policies -- the paper's core contribution (Section 4).

Given a transfer and the planes available on the links, decide which wires
carry it:

* branch-mispredict signals -> L-Wires (shortens the redirect leg of the
  mispredict penalty);
* load/store effective addresses -> split: the least-significant slice
  races ahead on L-Wires (enabling early LSQ disambiguation and cache
  RAM/TLB indexing), the rest follows on the bulk plane;
* narrow results (predicted to fit 10 bits) -> L-Wires;
* operands already ready at dispatch and store data -> PW-Wires (latency
  tolerant, energy cheap);
* traffic imbalance between B- and PW-planes beyond a threshold -> divert
  to the less congested plane.

Transfers that no rule claims ride the *bulk* plane (B-Wires when present,
else PW-Wires).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry
from ..wires import WireClass
from .errors import UnroutableError
from .loadbalance import ImbalanceDetector
from .message import (
    LWIRE_BITS,
    MISPREDICT_BITS,
    MS_ADDRESS_BITS,
    PARTIAL_ADDRESS_BITS,
    Transfer,
    TransferKind,
)
from .plane import LinkComposition

_L_ONLY: FrozenSet[WireClass] = frozenset((WireClass.L,))
_PW_ONLY: FrozenSet[WireClass] = frozenset((WireClass.PW,))


@dataclass(frozen=True)
class PolicyFlags:
    """Which of the paper's mechanisms are enabled.

    The defaults enable everything a link's composition supports; the
    ablation benchmarks toggle them individually.
    """

    lwire_mispredict: bool = True
    lwire_partial_address: bool = True
    lwire_narrow: bool = True
    pw_ready_operand: bool = True
    pw_store_data: bool = True
    pw_load_balance: bool = True
    #: Extension (off by default): wide values found in the replicated
    #: frequent-value table travel as an L-Wire index (Yang et al.).
    lwire_frequent_value: bool = False
    load_balance_window: int = 5
    load_balance_threshold: int = 10

    def without_lwire_uses(self) -> "PolicyFlags":
        return replace(self, lwire_mispredict=False,
                       lwire_partial_address=False, lwire_narrow=False)


@dataclass(frozen=True)
class PlannedSegment:
    """One wire-plane message the selector schedules for a transfer."""

    wire_class: WireClass
    bits: int
    is_leading_slice: bool = False
    is_final_slice: bool = True
    submit_delay: int = 0


#: A decision: (reason, planned segments).
Plan = Tuple[str, List[PlannedSegment]]


class WireSelector:
    """Applies :class:`PolicyFlags` to a link composition.

    ``select`` returns the planned segments for a transfer;
    ``record_injection`` feeds the imbalance detector (the paper tracks
    traffic *injected* into each interconnect).  A plan is a function of
    (reason, final plane, bits), so undegraded plans are memoized and
    shared between transfers.
    """

    #: Extra cycle to detect a narrow-width misprediction and reissue the
    #: full-width value on the bulk plane.
    NARROW_MISPREDICT_PENALTY = 1

    def __init__(self, composition: LinkComposition,
                 flags: PolicyFlags | None = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.composition = composition
        self.flags = flags or PolicyFlags()
        # Zero-cost-when-disabled: hot paths check one bool before
        # building any event attributes.
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._has_l = composition.has_plane(WireClass.L)
        self._has_pw = composition.has_plane(WireClass.PW)
        self._has_b = composition.has_plane(WireClass.B)
        self._bulk = composition.bulk_plane()
        self._detector = ImbalanceDetector(
            window=self.flags.load_balance_window,
            threshold=self.flags.load_balance_threshold,
        )
        #: The imbalance detector is consulted only when the rule is on
        #: and both bulk-capable planes exist; otherwise feeding its
        #: traffic window is unobservable work.
        self._dynamic_bulk = (self.flags.pw_load_balance
                              and self._has_b and self._has_pw)
        self._plans: Dict[Tuple[str, WireClass, int], Plan] = {}
        self.narrow_transfers = 0
        self.narrow_mispredicts = 0
        # Register-traffic narrowness (the paper's "14% of all register
        # traffic on the inter-cluster network are integers 0..1023").
        self.operand_transfers = 0
        self.operand_narrow = 0
        # Frequent-value-encoded transfers (extension).
        self.fv_transfers = 0
        # Per-rule PW steering counts (ablation reporting).
        self.pw_ready_transfers = 0
        self.pw_store_transfers = 0
        self.pw_diverted_transfers = 0
        # Selections planned around one or more dead planes.
        self.degraded_selections = 0

    # -- bookkeeping -----------------------------------------------------

    def record_injection(self, cycle: int, wire_class: WireClass) -> None:
        if self._dynamic_bulk:
            self._detector.record(cycle, wire_class)

    # -- the policy ------------------------------------------------------

    def select(self, transfer: Transfer, cycle: int,
               avoid: FrozenSet[WireClass] = frozenset()
               ) -> List[PlannedSegment]:
        """Planned segments for a transfer.

        ``avoid`` names planes that are dead on the transfer's path
        (fault injection): the policy re-plans through the surviving
        planes -- losing the L plane flips every L-Wire rule through the
        :meth:`PolicyFlags.without_lwire_uses` fallback, losing a bulk
        plane re-targets bulk traffic.
        """
        reason, segments = self._plan(transfer, cycle, avoid)
        tel = self.telemetry
        if tel.enabled:
            tel.count(f"selection.{reason}")
            tel.emit(cycle, EventKind.WIRE_SELECTED, {
                "kind": transfer.kind.value,
                "reason": reason,
                "plane": segments[-1].wire_class.value,
                "split": len(segments) > 1,
                "degraded": bool(avoid),
            })
        return segments

    def _plan(self, transfer: Transfer, cycle: int,
              avoid: FrozenSet[WireClass]) -> Plan:
        """(decision reason, planned segments) -- the policy proper."""
        kind = transfer.kind
        flags = self.flags
        has_l = self._has_l
        has_pw = self._has_pw
        if avoid:
            self.degraded_selections += 1
            if WireClass.L in avoid:
                flags = flags.without_lwire_uses()
                has_l = False
            if WireClass.PW in avoid:
                has_pw = False

        if kind is TransferKind.OPERAND:
            self.operand_transfers += 1
            if transfer.narrow_actual:
                self.operand_narrow += 1

        # Each rule picks a reason plus the plane and width of the final
        # (or only) segment; split reasons add a leading L-Wire slice.
        bits = transfer.bits
        if kind is TransferKind.MISPREDICT:
            bits = MISPREDICT_BITS
            if flags.lwire_mispredict and has_l:
                reason, plane = "mispredict_lwire", WireClass.L
            else:
                reason = "mispredict_bulk"
                plane = self._bulk_choice(transfer, cycle, avoid)
        elif kind.is_address and flags.lwire_partial_address and has_l:
            reason, bits = "partial_address", MS_ADDRESS_BITS
            plane = self._bulk_choice(transfer, cycle, avoid)
        elif (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_narrow and has_l
                and transfer.narrow_predicted):
            self.narrow_transfers += 1
            if transfer.narrow_actual:
                reason, plane, bits = "narrow_lwire", WireClass.L, LWIRE_BITS
            else:
                # Width mispredicted: the tag went out on L-Wires but the
                # value does not fit; reissue full width after a
                # detection cycle.
                self.narrow_mispredicts += 1
                reason = "narrow_mispredict"
                plane = self._bulk_choice(transfer, cycle, avoid)
        elif (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_frequent_value and has_l
                and transfer.fv_encodable):
            # Frequent-value index + tag fits the L-Wire plane.
            self.fv_transfers += 1
            reason, plane, bits = "frequent_value", WireClass.L, LWIRE_BITS
        elif (kind is TransferKind.OPERAND and transfer.ready_at_dispatch
                and flags.pw_ready_operand and has_pw):
            self.pw_ready_transfers += 1
            reason, plane = "pw_ready", WireClass.PW
        elif (kind is TransferKind.STORE_DATA and flags.pw_store_data
                and has_pw):
            self.pw_store_transfers += 1
            reason, plane = "pw_store", WireClass.PW
        else:
            reason = "bulk"
            plane = self._bulk_choice(transfer, cycle, avoid)

        if avoid:
            return reason, _segments(reason, plane, bits)
        key = (reason, plane, bits)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = (reason, _segments(reason, plane, bits))
        return plan

    def demand_planes(self, transfer: Transfer) -> FrozenSet[WireClass]:
        """Planes the unconstrained policy would pick for a transfer.

        A side-effect-free mirror of :meth:`_plan` with no ``avoid``
        set and the load-balance divert ignored: no counters move, the
        imbalance detector is not consulted.  The power manager uses
        this as the *demand* signal -- which sleeping planes a transfer
        would want woken -- before the real (avoid-constrained)
        selection runs.
        """
        kind = transfer.kind
        flags = self.flags
        if kind is TransferKind.MISPREDICT:
            if flags.lwire_mispredict and self._has_l:
                return _L_ONLY
            return frozenset((self._bulk,))
        if kind.is_address and flags.lwire_partial_address and self._has_l:
            return frozenset((WireClass.L, self._bulk))
        if (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_narrow and self._has_l
                and transfer.narrow_predicted):
            if transfer.narrow_actual:
                return _L_ONLY
            return frozenset((WireClass.L, self._bulk))
        if (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_frequent_value and self._has_l
                and transfer.fv_encodable):
            return _L_ONLY
        if (kind is TransferKind.OPERAND and transfer.ready_at_dispatch
                and flags.pw_ready_operand and self._has_pw):
            return _PW_ONLY
        if (kind is TransferKind.STORE_DATA and flags.pw_store_data
                and self._has_pw):
            return _PW_ONLY
        return frozenset((self._bulk,))

    # -- helpers ---------------------------------------------------------

    def bulk_for(self, avoid: FrozenSet[WireClass]) -> WireClass:
        """The default bulk plane among the survivors of ``avoid``."""
        if not avoid:
            return self._bulk
        for wc in (WireClass.B, WireClass.PW, WireClass.W):
            if self.composition.has_plane(wc) and wc not in avoid:
                return wc
        dead = ", ".join(sorted(w.value for w in avoid))
        raise UnroutableError(
            f"no surviving bulk-capable plane on link (composition: "
            f"{self.composition.describe()}; dead planes: {dead})"
        )

    def _bulk_choice(self, transfer: Transfer, cycle: int,
                     avoid: FrozenSet[WireClass] = frozenset()) -> WireClass:
        """Bulk plane after the load-imbalance rule."""
        if (self._dynamic_bulk and WireClass.B not in avoid
                and WireClass.PW not in avoid):
            diverted = self._detector.redirect(
                cycle, WireClass.B, WireClass.PW
            )
            if diverted is not None:
                if diverted is not self._bulk:
                    self.pw_diverted_transfers += 1
                    tel = self.telemetry
                    if tel.enabled:
                        # The paper's overflow criterion fired: recent
                        # traffic imbalance steered bulk traffic onto
                        # the less congested plane.
                        tel.count("selection.lb_divert")
                        tel.emit(cycle, EventKind.LB_DIVERT, {
                            "from": self._bulk.value,
                            "to": diverted.value,
                        })
                return diverted
        return self.bulk_for(avoid)


def _segments(reason: str, plane: WireClass,
              bits: int) -> List[PlannedSegment]:
    """The segments of a decision; ``plane``/``bits`` are the final one's."""
    if reason == "partial_address":
        return [PlannedSegment(WireClass.L, PARTIAL_ADDRESS_BITS,
                               is_leading_slice=True, is_final_slice=False),
                PlannedSegment(plane, bits)]
    if reason == "narrow_mispredict":
        return [PlannedSegment(WireClass.L, LWIRE_BITS,
                               is_leading_slice=True, is_final_slice=False),
                PlannedSegment(plane, bits, submit_delay=WireSelector
                               .NARROW_MISPREDICT_PENALTY)]
    return [PlannedSegment(plane, bits)]
