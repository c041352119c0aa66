"""The cache access pipeline -- baseline and L-Wire-accelerated.

Section 4 of the paper ("Accelerating Cache Access"): the L1 data and tag
RAM arrays are indexed by least-significant address bits only, so RAM
access can start as soon as an 18-bit partial address arrives on L-Wires;
the most-significant bits (TLB translation + tag compare) are only needed
at the end.  If RAM access finishes before the full address arrives, one
extra cycle after MS-bit arrival selects the translation and effects the
tag comparison.

:class:`CachePipeline` turns those rules into completion cycles:

* ``baseline_access`` -- the whole 6-cycle RAM + tag/TLB pipeline starts
  when the full address is available at the cache.
* ``start_ram_early`` / ``finish_early_access`` -- the two-phase
  accelerated pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hierarchy import HitLevel, MemoryHierarchy


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a data-cache access."""

    done_cycle: int
    level: HitLevel


class CachePipeline:
    """Timing rules for L1 accesses under either pipeline organization."""

    #: Extra cycle to select the TLB translation and do the tag compare
    #: when RAM access already finished before the MS bits arrived.
    LATE_TAG_CYCLE = 1

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    # -- baseline pipeline -------------------------------------------------

    def baseline_access(self, addr: int, full_addr_cycle: int) -> AccessResult:
        """Full address available at ``full_addr_cycle``; serial pipeline."""
        h = self.hierarchy
        start = h.reserve_bank(addr, full_addr_cycle)
        tlb_penalty = h.translate(addr)
        level, extra = h.lookup_levels(addr)
        done = start + h.config.l1_latency + tlb_penalty + extra
        return AccessResult(done_cycle=done, level=level)

    # -- accelerated (partial-address) pipeline -----------------------------

    def start_ram_early(self, addr: int, partial_cycle: int) -> int:
        """Begin RAM array access from the LS bits alone.

        Returns the cycle the RAM read-out completes.  The hit/miss
        outcome is unknown until :meth:`finish_early_access`.
        """
        h = self.hierarchy
        start = h.reserve_bank(addr, partial_cycle)
        return start + h.config.l1_latency

    def finish_early_access(self, addr: int, ram_done_cycle: int,
                            full_addr_cycle: int) -> AccessResult:
        """Complete an early-started access once the MS bits have arrived."""
        h = self.hierarchy
        tlb_penalty = h.translate(addr)
        hit_done = max(ram_done_cycle,
                       full_addr_cycle + self.LATE_TAG_CYCLE)
        level, extra = h.lookup_levels(addr)
        done = hit_done + tlb_penalty + extra
        return AccessResult(done_cycle=done, level=level)
