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

from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry, event_names
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

# Module globals for the per-transfer paths (an enum-class attribute
# load costs far more than a global load).
_L, _PW, _B = WireClass.L, WireClass.PW, WireClass.B
_OPERAND = TransferKind.OPERAND
_STORE_DATA = TransferKind.STORE_DATA
_MISPREDICT = TransferKind.MISPREDICT
_L_ONLY: FrozenSet[WireClass] = frozenset((_L,))
_PW_ONLY: FrozenSet[WireClass] = frozenset((_PW,))

#: Attribute names of the ``wire_selected`` and ``lb_divert`` events.
_SELECTED_ATTRS = event_names("degraded", "kind", "plane", "reason", "split")
_DIVERT_ATTRS = event_names("from", "to")


@dataclass(frozen=True)
class PolicyFlags:
    """Which of the paper's mechanisms are enabled.

    The defaults enable everything a link's composition supports; the
    ablation benchmarks toggle them individually.  :meth:`tag` spells a
    set of flags as text (an experiment plan's ``policy_tag``) and
    :meth:`from_tag` reads it back.
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
    #: Implement L-Wires as transmission lines: their time-of-flight
    #: latency is immune to the plan's ``latency_scale`` (the paper's
    #: future work).
    transmission_line_lwires: bool = False
    #: Predict memory dependences and let predicted-independent loads
    #: bypass the wait for older store addresses (Section 4's remark);
    #: ordering violations squash the front-end for the processor's
    #: ``violation_penalty`` cycles.
    memory_dependence_speculation: bool = False

    def without_lwire_uses(self) -> "PolicyFlags":
        return replace(self, lwire_mispredict=False,
                       lwire_partial_address=False, lwire_narrow=False)

    def tag(self) -> str:
        """The canonical spelling: ``"default"``, or ``name=value`` for
        each field that differs from the defaults, in declaration order
        (as ``0``/``1``), e.g. ``lwire_narrow=0,pw_store_data=0``.
        """
        return ",".join(
            f"{f.name}={int(getattr(self, f.name))}" for f in fields(self)
            if getattr(self, f.name) != f.default
        ) or "default"

    @classmethod
    def from_tag(cls, text: str) -> "PolicyFlags":
        """Parse a tag in any order, with spaces, ``""`` as the default;
        an unknown or repeated name or a bad value raises ``ValueError``.
        """
        text = text.strip()
        if text in ("", "default"):
            return cls()
        names = {f.name for f in fields(cls)}
        values: Dict[str, bool] = {}
        for item in text.split(","):
            name, _, value = (part.strip() for part in item.partition("="))
            if name not in names:
                raise ValueError(f"unknown policy flag {name!r}")
            if name in values:
                raise ValueError(f"policy flag {name!r} given twice")
            if value not in ("0", "1"):
                raise ValueError(f"bad value {value!r} for policy flag "
                                 f"{name!r}")
            values[name] = value == "1"
        return cls(**values)


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
        #: The flags a selection uses once the L plane is avoided, and
        #: the demand sets :meth:`demand_planes` answers with: built
        #: once, since flags and composition never change.
        self._flags_without_l = self.flags.without_lwire_uses()
        self._demand_bulk = frozenset((self._bulk,))
        self._demand_l_bulk = frozenset((WireClass.L, self._bulk))
        self._detector = ImbalanceDetector()
        #: The imbalance detector is consulted only when the rule is on
        #: and both bulk-capable planes exist; otherwise feeding its
        #: traffic window is unobservable work.
        self._dynamic_bulk = (self.flags.pw_load_balance
                              and self._has_b and self._has_pw)
        self._plans: Dict[Tuple[str, WireClass, int], Plan] = {}
        # Register-traffic narrowness (the paper's "14% of all register
        # traffic on the inter-cluster network are integers 0..1023").
        self.operand_transfers = 0
        self.operand_narrow = 0
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
            tel.emit(cycle, EventKind.WIRE_SELECTED, _SELECTED_ATTRS, (
                bool(avoid), transfer.kind._value_,
                segments[-1].wire_class._value_, reason, len(segments) > 1,
            ))
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
            if _L in avoid:
                flags = self._flags_without_l
                has_l = False
            if _PW in avoid:
                has_pw = False

        if kind is _OPERAND:
            self.operand_transfers += 1
            if transfer.narrow_actual:
                self.operand_narrow += 1

        # Each rule picks a reason plus the plane and width of the final
        # (or only) segment; split reasons add a leading L-Wire slice.
        bits = transfer.bits
        if kind is _MISPREDICT:
            bits = MISPREDICT_BITS
            if flags.lwire_mispredict and has_l:
                reason, plane = "mispredict_lwire", _L
            else:
                reason = "mispredict_bulk"
                plane = self._bulk_choice(transfer, cycle, avoid)
        elif kind._address and flags.lwire_partial_address and has_l:
            reason, bits = "partial_address", MS_ADDRESS_BITS
            plane = self._bulk_choice(transfer, cycle, avoid)
        elif (kind._result and flags.lwire_narrow and has_l
                and transfer.narrow_predicted):
            if transfer.narrow_actual:
                reason, plane, bits = "narrow_lwire", _L, LWIRE_BITS
            else:
                # Width mispredicted: the tag went out on L-Wires but the
                # value does not fit; reissue full width after a
                # detection cycle.
                reason = "narrow_mispredict"
                plane = self._bulk_choice(transfer, cycle, avoid)
        elif (kind._result and flags.lwire_frequent_value and has_l
                and transfer.fv_encodable):
            # Frequent-value index + tag fits the L-Wire plane.
            reason, plane, bits = "frequent_value", _L, LWIRE_BITS
        elif (kind is _OPERAND and transfer.ready_at_dispatch
                and flags.pw_ready_operand and has_pw):
            reason, plane = "pw_ready", _PW
        elif (kind is _STORE_DATA and flags.pw_store_data
                and has_pw):
            reason, plane = "pw_store", _PW
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
        if kind is _MISPREDICT:
            if flags.lwire_mispredict and self._has_l:
                return _L_ONLY
            return self._demand_bulk
        if kind._address and flags.lwire_partial_address and self._has_l:
            return self._demand_l_bulk
        if (kind._result and flags.lwire_narrow and self._has_l
                and transfer.narrow_predicted):
            if transfer.narrow_actual:
                return _L_ONLY
            return self._demand_l_bulk
        if (kind._result and flags.lwire_frequent_value and self._has_l
                and transfer.fv_encodable):
            return _L_ONLY
        if (kind is _OPERAND and transfer.ready_at_dispatch
                and flags.pw_ready_operand and self._has_pw):
            return _PW_ONLY
        if (kind is _STORE_DATA and flags.pw_store_data
                and self._has_pw):
            return _PW_ONLY
        return self._demand_bulk

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
        if self._dynamic_bulk and _B not in avoid and _PW not in avoid:
            diverted = self._detector.redirect(cycle, _B, _PW)
            if diverted is not None:
                if diverted is not self._bulk:
                    tel = self.telemetry
                    if tel.enabled:
                        # The paper's overflow criterion fired: recent
                        # traffic imbalance steered bulk traffic onto
                        # the less congested plane.
                        tel.count("selection.lb_divert")
                        tel.emit(cycle, EventKind.LB_DIVERT, _DIVERT_ATTRS,
                                 (self._bulk._value_, diverted._value_))
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
