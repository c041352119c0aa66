"""Instruction-stream records consumed by the timing simulator.

The simulator is trace-driven: branch outcomes, memory addresses, and
result bit-widths come from the workload stream, while all timing (fetch,
steering, issue, communication, cache) is simulated.  This mirrors how the
paper's Simplescalar-based evaluation consumes SPEC2k instruction windows,
with the synthetic generator of :mod:`repro.workloads.generator` standing
in for the Alpha binaries (see DESIGN.md for the substitution argument).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class OpClass(enum.Enum):
    """Functional-unit classes, matching Table 1's per-cluster units."""

    IALU = "ialu"
    IMUL = "imul"
    FPALU = "fpalu"
    FPMUL = "fpmul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"

    #: Identity hashing in C, consistent with identity equality.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_fp(self) -> bool:
        return self in (OpClass.FPALU, OpClass.FPMUL)


#: Execution latency (cycles) per op class, excluding memory access time.
#: Simplescalar defaults: single-cycle integer ALU, pipelined multiplier,
#: multi-cycle FP.  Loads/stores take one cycle of address generation and
#: then enter the memory pipeline.
EXECUTION_LATENCY = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.FPALU: 2,
    OpClass.FPMUL: 4,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
}

#: Functional-unit pool an op class issues to: address generation for
#: loads/stores and branch resolution use the integer ALU, as in
#: Simplescalar.
FU_POOL = {
    OpClass.IALU: "ialu",
    OpClass.LOAD: "ialu",
    OpClass.STORE: "ialu",
    OpClass.BRANCH: "ialu",
    OpClass.IMUL: "imul",
    OpClass.FPALU: "fpalu",
    OpClass.FPMUL: "fpmul",
}

# The per-op constants as plain attributes on the members: the hottest
# per-instruction paths read one attribute instead of probing an
# enum-keyed dict or calling a Python-level property.
for _op in OpClass:
    _op._lat = EXECUTION_LATENCY[_op]
    _op._mem = _op.is_memory
    _op._fp = _op.is_fp
    _op._pool = FU_POOL[_op]
del _op

#: Number of architectural integer registers (fp registers occupy
#: ``NUM_ARCH_REGS .. 2*NUM_ARCH_REGS - 1``).
NUM_ARCH_REGS = 32
#: Register id meaning "no destination".
NO_REG = -1


@dataclass(frozen=True, slots=True)
class InstructionRecord:
    """One dynamic instruction of the trace.

    * ``pc`` -- instruction address (drives branch predictor indexing).
    * ``op`` -- functional class.
    * ``dest`` -- architectural destination register or ``NO_REG``.
    * ``srcs`` -- architectural source registers (0--2 of them).
    * ``addr`` -- effective address (loads/stores only, else 0).
    * ``taken`` / ``target`` -- branch outcome and target pc (branches
      only).
    * ``value_width`` -- bit width of the produced result; results of 10
      bits or fewer are the paper's "narrow" operands.
    * ``value`` -- the produced value itself (``value.bit_length()``
      matches ``value_width``); used by value-based compaction studies
      such as the frequent-value extension.
    """

    pc: int
    op: OpClass
    dest: int = NO_REG
    srcs: Tuple[int, ...] = ()
    addr: int = 0
    taken: bool = False
    target: int = 0
    value_width: int = 64
    value: int = 0

    @property
    def is_narrow(self) -> bool:
        """True if the result fits the 10-bit L-Wire payload (0..1023)."""
        return self.dest != NO_REG and self.value_width <= 10

    @property
    def writes_int_register(self) -> bool:
        return NO_REG < self.dest < NUM_ARCH_REGS
