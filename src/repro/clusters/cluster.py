"""A cluster: issue queues, register files, one functional unit of each kind.

Table 1: 15 issue-queue entries (int and fp each), 32 registers (int and
fp each), one integer ALU, one integer mult/div, one FP ALU and one FP
mult/div per cluster.  Address generation for loads/stores and branch
resolution use the integer ALU, as in Simplescalar.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from ..core.instruction import DynInstr
from ..workloads.trace import FU_POOL, OpClass  # noqa: F401  (re-export)

#: Units of each pool per cluster (Table 1: one of each kind).
DEFAULT_FU_COUNTS: Dict[str, int] = {
    "ialu": 1, "imul": 1, "fpalu": 1, "fpmul": 1,
}


class Cluster:
    """Execution resources and the ready/issue machinery of one cluster.

    Hot paths read the per-op constants stamped onto :class:`OpClass`
    members (``op._fp``, ``op._pool``) instead of calling properties or
    hashing the enum.
    """

    def __init__(self, index: int, node: str, iq_size: int = 15,
                 regfile_size: int = 32,
                 fu_counts: Dict[str, int] | None = None) -> None:
        if iq_size < 1 or regfile_size < 1:
            raise ValueError("cluster resources must be positive")
        self.index = index
        self.node = node
        self.iq_size = iq_size
        self.regfile_size = regfile_size
        self.free_int_iq = iq_size
        self.free_fp_iq = iq_size
        self.free_int_regs = regfile_size
        self.free_fp_regs = regfile_size
        self.fu_counts = dict(fu_counts or DEFAULT_FU_COUNTS)
        # Ready instructions per FU pool, ordered oldest-first.
        self._ready: Dict[str, List[int]] = {p: [] for p in self.fu_counts}
        self._ready_instrs: Dict[int, DynInstr] = {}

    # -- dispatch-side resource accounting ---------------------------------

    def can_accept(self, op: OpClass, has_dest: bool) -> bool:
        if op._fp:
            return self.free_fp_iq > 0 and (
                not has_dest or self.free_fp_regs > 0
            )
        return self.free_int_iq > 0 and (
            not has_dest or self.free_int_regs > 0
        )

    def admit(self, instr: DynInstr) -> None:
        """Consume an issue-queue slot and a destination register."""
        op = instr.rec.op
        has_dest = instr.rec.dest >= 0
        if not self.can_accept(op, has_dest):
            raise RuntimeError(f"cluster {self.index} has no room for {op}")
        if op._fp:
            self.free_fp_iq -= 1
            if has_dest:
                self.free_fp_regs -= 1
        else:
            self.free_int_iq -= 1
            if has_dest:
                self.free_int_regs -= 1
        instr.cluster = self.index

    def release_register(self, instr: DynInstr) -> None:
        """Free the destination register at commit."""
        if instr.rec.dest < 0:
            return
        if instr.rec.op._fp:
            self.free_fp_regs = min(self.regfile_size, self.free_fp_regs + 1)
        else:
            self.free_int_regs = min(self.regfile_size, self.free_int_regs + 1)

    def free_iq_entries(self, op: OpClass) -> int:
        """Free entries in the issue queue ``op`` enters (int or fp).

        Steering reads ``free_int_iq``/``free_fp_iq`` itself."""
        return self.free_fp_iq if op._fp else self.free_int_iq

    # -- issue-side ----------------------------------------------------------

    def make_ready(self, instr: DynInstr) -> None:
        """All operands available in this cluster: eligible for selection."""
        heapq.heappush(self._ready[instr.rec.op._pool], instr.seq)
        self._ready_instrs[instr.seq] = instr

    def select(self) -> List[DynInstr]:
        """Oldest-first selection, up to the FU count of each pool.

        Frees the issue-queue entries of the selected instructions.
        """
        selected: List[DynInstr] = []
        ready_instrs = self._ready_instrs
        heappop = heapq.heappop
        for pool, heap in self._ready.items():
            if not heap:
                continue
            budget = self.fu_counts[pool]
            while budget > 0 and heap:
                seq = heappop(heap)
                instr = ready_instrs.pop(seq)
                instr.issued = True
                selected.append(instr)
                budget -= 1
                if instr.rec.op._fp:
                    self.free_fp_iq = min(self.iq_size, self.free_fp_iq + 1)
                else:
                    self.free_int_iq = min(self.iq_size, self.free_int_iq + 1)
        return selected

    def occupancy(self) -> int:
        """Issue-queue entries in use (int + fp)."""
        return (self.iq_size - self.free_int_iq) + (
            self.iq_size - self.free_fp_iq
        )
