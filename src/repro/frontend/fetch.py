"""The fetch unit: 8-wide across up to two basic blocks, 64-entry queue.

Trace-driven: instruction records come from the workload stream, which
supplies the *correct* path.  Branches are run through the combining
predictor and the BTB; a mispredicted branch (wrong direction, or a taken
branch the BTB cannot supply a target for) stops fetch on the spot --
wrong-path instructions are not simulated, the penalty is the stall until
the branch resolves, the redirect signal crosses the interconnect, and
the front-end pipeline refills ("at least 12 cycles", Table 1).

Prediction, BTB and I-cache outcomes are pure functions of stream order,
so they come precomputed with the stream
(:class:`~repro.workloads.annotate.AnnotatedTrace`); this unit replays
them against the cycle-level stall and redirect timing.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from ..core.instruction import DynInstr
from ..workloads.trace import OpClass

if TYPE_CHECKING:
    from ..workloads.annotate import AnnotatedTrace


class FetchUnit:
    """Fills the fetch queue and enforces redirect stalls."""

    def __init__(self, trace: "AnnotatedTrace", width: int = 8,
                 queue_size: int = 64, max_blocks: int = 2,
                 refill_penalty: int = 10,
                 icache_miss_penalty: int = 12) -> None:
        if width < 1 or queue_size < 1 or max_blocks < 1:
            raise ValueError("fetch dimensions must be positive")
        if refill_penalty < 0 or icache_miss_penalty < 0:
            raise ValueError("penalties must be non-negative")
        self.trace = trace
        self.width = width
        self.max_blocks = max_blocks
        self.refill_penalty = refill_penalty
        self.icache_miss_penalty = icache_miss_penalty
        self.queue: Deque[DynInstr] = deque()
        self.queue_size = queue_size
        self._seq = 0
        #: The current record already paid its I-cache miss stall.
        self._retrying = False
        self._resume_cycle = 0
        #: Sequence number of the unresolved redirecting branch, if any.
        self._redirect_seq: Optional[int] = None
        self.exhausted = False
        self.fetched = 0
        self.redirects = 0

    def predictor_counts(self) -> Tuple[int, int]:
        """(lookups, mispredicts) of the direction predictor over the
        branches fetched so far.

        The predictor itself trains along the annotated stream, which
        runs ahead of fetch and is shared by every run of the same
        stream, so its own counters describe the stream, not this run.
        """
        records = self.trace.records
        mispredicted = self.trace.mispredicted
        lookups = mispredicts = 0
        for seq in range(self._seq):
            if records[seq].op is OpClass.BRANCH:
                lookups += 1
                mispredicts += mispredicted[seq]
        return lookups, mispredicts

    @property
    def branch_accuracy(self) -> float:
        """Direction-prediction accuracy over the branches fetched so
        far (1.0 before the first)."""
        lookups, mispredicts = self.predictor_counts()
        return 1.0 - mispredicts / lookups if lookups else 1.0

    # -- redirect handshake -------------------------------------------------

    @property
    def stalled_for_redirect(self) -> bool:
        return self._redirect_seq is not None

    def redirect_arrived(self, branch_seq: int, cycle: int) -> None:
        """The resolved branch's redirect signal reached the front-end."""
        if self._redirect_seq != branch_seq:
            return
        self._redirect_seq = None
        self._resume_cycle = cycle + self.refill_penalty
        self.redirects += 1

    def stall_until(self, cycle: int) -> None:
        """Hold fetch until ``cycle`` (e.g. a memory-ordering violation
        squashing the front of the window)."""
        self._resume_cycle = max(self._resume_cycle, cycle)

    # -- per-cycle fetch ------------------------------------------------------

    def tick(self, cycle: int) -> int:
        """Fetch up to ``width`` instructions into the queue; returns the
        number fetched."""
        if self._redirect_seq is not None or cycle < self._resume_cycle:
            return 0
        trace = self.trace
        records = trace.records
        miss = trace.miss
        queue = self.queue
        queue_size = self.queue_size
        seq = self._seq
        fetched = 0
        blocks = 1
        width = self.width
        max_blocks = self.max_blocks
        while fetched < width and len(queue) < queue_size:
            if seq >= len(records):
                trace.ensure(seq + 1)
                if seq >= len(records):
                    self.exhausted = True
                    break
            if miss[seq] and not self._retrying:
                # I-cache miss: stall, retry this record when the line
                # is in (the annotation already accounted the retry hit).
                self._retrying = True
                self._resume_cycle = cycle + self.icache_miss_penalty
                break
            self._retrying = False
            rec = records[seq]
            instr = DynInstr(seq, rec)
            seq += 1
            self.fetched += 1
            fetched += 1
            if rec.op is OpClass.BRANCH:
                index = instr.seq
                instr.pred_taken = bool(trace.pred_taken[index])
                instr.mispredicted = bool(trace.mispredicted[index])
                instr.btb_miss = bool(trace.btb_miss[index])
                if instr.mispredicted or instr.btb_miss:
                    self._redirect_seq = instr.seq
                    queue.append(instr)
                    break
                blocks += 1
                queue.append(instr)
                if blocks > max_blocks:
                    break
            else:
                queue.append(instr)
        self._seq = seq
        return fetched
