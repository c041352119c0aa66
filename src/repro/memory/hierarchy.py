"""The centralized memory hierarchy (Table 1).

L1 D-cache: 32 KB, 4-way, 6-cycle access, 4-way word-interleaved banks.
L2 unified: 8 MB, 8-way, 30 cycles.  Main memory: 300 cycles for the
first block.  D-TLB: 128 entries, 8 KB pages.

Banks accept one new access per cycle each; misses are non-blocking
(latency adds, banks free immediately -- an unlimited-MSHR model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cache import SetAssocCache
from .tlb import TLB


class HitLevel(enum.Enum):
    """Where a memory access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"
    FORWARD = "forward"

    #: Identity hashing in C, consistent with identity equality.
    __hash__ = object.__hash__


_L1, _L2, _MEMORY = HitLevel.L1, HitLevel.L2, HitLevel.MEMORY


@dataclass(frozen=True)
class HierarchyConfig:
    """Dimensions and latencies of the memory system (Table 1 defaults)."""

    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 4
    l1_latency: int = 6
    l1_banks: int = 4
    line_size: int = 32
    word_size: int = 8
    l2_size_bytes: int = 8 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 30
    mem_latency: int = 300
    tlb_entries: int = 128
    page_size: int = 8192
    tlb_assoc: int = 8
    tlb_miss_penalty: int = 30

    def __post_init__(self) -> None:
        if self.l1_banks < 1:
            raise ValueError("need at least one L1 bank")
        if self.l1_banks & (self.l1_banks - 1):
            raise ValueError("bank count must be a power of two")
        for name in ("l1_latency", "l2_latency", "mem_latency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least one cycle")


class MemoryHierarchy:
    """Timing model of the centralized cache hierarchy."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.l1 = SetAssocCache(cfg.l1_size_bytes, cfg.l1_assoc,
                                cfg.line_size, name="L1D")
        self.l2 = SetAssocCache(cfg.l2_size_bytes, cfg.l2_assoc,
                                cfg.line_size, name="L2")
        self.tlb = TLB(cfg.tlb_entries, cfg.page_size, cfg.tlb_assoc,
                       cfg.tlb_miss_penalty)
        self._bank_next_free = [0] * cfg.l1_banks
        self._bank_shift = cfg.word_size.bit_length() - 1
        self._bank_mask = cfg.l1_banks - 1
        self.loads = 0
        self.stores = 0

    # -- banks ------------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Word-interleaved bank selection."""
        return (addr >> self._bank_shift) & self._bank_mask

    def reserve_bank(self, addr: int, earliest: int) -> int:
        """Reserve the addressed bank; returns the cycle the access starts."""
        bank = self.bank_of(addr)
        start = max(earliest, self._bank_next_free[bank])
        self._bank_next_free[bank] = start + 1
        return start

    # -- accesses -----------------------------------------------------------

    def lookup_levels(self, addr: int) -> tuple[HitLevel, int]:
        """Resolve where ``addr`` hits and the extra beyond-L1 latency.

        Updates L1/L2 state (misses allocate).  The caller adds the L1
        pipeline latency itself, since RAM access may have been overlapped
        by the partial-address pipeline.
        """
        cfg = self.config
        if self.l1.access(addr):
            return _L1, 0
        if self.l2.access(addr):
            return _L2, cfg.l2_latency
        return _MEMORY, cfg.l2_latency + cfg.mem_latency

    def translate(self, addr: int) -> int:
        """TLB lookup; returns added penalty cycles (0 on a hit)."""
        return self.tlb.access(addr)

    def store_commit(self, addr: int, earliest: int) -> int:
        """A committing store writes the cache; returns write-done cycle.

        Write-allocate: misses pull the line in but do not stall commit
        (write-buffer semantics); the bank is busy for the write cycle.
        """
        self.stores += 1
        start = self.reserve_bank(addr, earliest)
        self.l1.access(addr)
        return start + 1
