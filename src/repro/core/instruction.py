"""Dynamic-instruction state shared by all pipeline stages.

A :class:`DynInstr` wraps one :class:`~repro.workloads.trace.InstructionRecord`
from fetch to commit.  It is deliberately a plain mutable record: the
pipeline stages (frontend, steering, issue, LSQ, commit) own the state
transitions, and the fields here are the minimal communication surface
between them.
"""

from __future__ import annotations

from typing import Dict, List

from ..workloads.trace import InstructionRecord, OpClass

#: Sentinel cycle meaning "not yet".
NEVER = -1


class DynInstr:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "seq", "rec", "cluster", "mispredicted", "btb_miss",
        "outstanding", "issued", "issue_cycle", "completed",
        "complete_cycle", "committed", "avail_cycle",
        "waiters", "dispatch_cycle", "pred_taken",
        "addr_known_cycle", "lsq_index", "store_data_ready",
        "narrow_predicted", "producer_pcs", "transfer_started",
        "data_outstanding",
    )

    def __init__(self, seq: int, rec: InstructionRecord) -> None:
        self.seq = seq
        self.rec = rec
        #: Cluster the instruction was steered to (set at dispatch).
        self.cluster: int = -1
        #: Branch direction/target was mispredicted at fetch.
        self.mispredicted = False
        #: Taken branch missed in the BTB (also forces a redirect).
        self.btb_miss = False
        #: Source operands not yet available in this instruction's cluster.
        self.outstanding = 0
        self.issued = False
        self.issue_cycle = NEVER
        self.completed = False
        self.complete_cycle = NEVER
        self.committed = False
        #: Cycle the result became available, per cluster index.  The
        #: producing cluster gets an entry at completion; remote clusters
        #: when their operand copy arrives over the network.
        self.avail_cycle: Dict[int, int] = {}
        #: Consumers waiting for this result, per cluster index; each
        #: entry is (consumer, is_store_data).
        self.waiters: Dict[int, List[tuple]] = {}
        self.dispatch_cycle = NEVER
        self.pred_taken = False
        #: Cycle the effective address was computed (loads/stores).
        self.addr_known_cycle = NEVER
        self.lsq_index = -1
        #: Store data has arrived at the LSQ (stores only).
        self.store_data_ready = False
        #: The width predictor flagged this result as narrow.
        self.narrow_predicted = False
        #: PCs of this instruction's in-flight producers (for criticality
        #: training when the last operand arrives).
        self.producer_pcs: List[int] = []
        #: Clusters an operand copy has already been launched toward.
        self.transfer_started: set = set()
        #: Store-data operands not yet available in this store's cluster
        #: (stores compute their address as soon as the address operand is
        #: ready; the data value ships to the LSQ independently).
        self.data_outstanding = 0

    @property
    def op(self) -> OpClass:
        return self.rec.op

    @property
    def is_load(self) -> bool:
        return self.rec.op is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.rec.op is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.rec.op is OpClass.BRANCH

    @property
    def needs_redirect(self) -> bool:
        """True if resolving this branch must redirect the front-end."""
        return self.mispredicted or self.btb_miss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynInstr(seq={self.seq}, op={self.rec.op.value}, "
                f"cluster={self.cluster}, issued={self.issued}, "
                f"completed={self.completed})")
