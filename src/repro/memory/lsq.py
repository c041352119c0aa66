"""The centralized load/store queue with partial-address disambiguation.

Baseline behaviour (Section 4): a load may access the cache only once the
addresses of *all* program-order-earlier stores are known and none of them
conflicts; a full-address match forwards the store's data instead.

Accelerated behaviour: load and store LS address bits arrive early on
L-Wires.  When every earlier store's LS bits are known and none matches
the load's LS bits, the load is guaranteed dependence-free and RAM access
starts immediately; the tag/TLB side completes after the MS bits arrive.
An LS-bit match forces a wait for full addresses -- if the full addresses
then differ, that was a *false dependence* (the paper measures <9% of
loads at 8 LS compare bits).

Store events re-advance only the waiting loads they can move.  Each
scan of a load's older stores remembers the first store it stopped at:
``ls_block``, whose LS bits were unknown, and ``full_block``, whose full
address was unknown.  A store's bits never become unknown again and a
committed store has both, so while its blocker is still unresolved a
re-scan would stop at the same store and change nothing; the load is
skipped.  A load whose older LS bits were all known but one matched (an
LS alias) has no blocker and is re-scanned on every store event: once
the aliasing store commits, the next scan can start its RAM early.  A
load still waiting for its own address, once the early-RAM question is
settled, moves only on its own address events; a load whose forwarding
store is already decided moves only when that store's data arrives.
Stores commit in program order, so committed stores form a prefix of a
load's older-store snapshot, pruned in place as the load advances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.instruction import DynInstr
from ..workloads.trace import OpClass
from .hierarchy import HitLevel
from .pipeline import CachePipeline

_LOAD, _STORE, _FORWARD = OpClass.LOAD, OpClass.STORE, HitLevel.FORWARD

#: Callback fired when a load's data is ready to leave the cache:
#: (load instruction, cycle, hit level).
LoadDoneFn = Callable[[DynInstr, int, HitLevel], None]


class _Entry:
    """One LSQ slot."""

    __slots__ = (
        "instr", "is_store", "ls", "full", "full_cycle",
        "data_cycle", "ram_started", "ram_done", "done",
        "older_stores", "had_ls_match", "committed",
        "wait_for_stores", "speculated", "violated", "wait_store",
        "ls_block", "full_block",
    )

    def __init__(self, instr: DynInstr, is_store: bool,
                 older_stores: List["_Entry"]) -> None:
        self.instr = instr
        self.is_store = is_store
        #: False when the dependence predictor allows speculation.
        self.wait_for_stores = True
        #: Completed without waiting for all older store addresses.
        self.speculated = False
        #: An older store later resolved to the same address.
        self.violated = False
        #: Least-significant compare bits, once known.
        self.ls: Optional[int] = None
        #: Full effective address, once known.
        self.full: Optional[int] = None
        self.full_cycle = -1
        #: Cycle store data arrived (stores only).
        self.data_cycle = -1
        self.ram_started = False
        self.ram_done = -1
        self.done = False
        #: Stores older than this load, snapshotted at allocation
        #: (dispatch is in-order, so the snapshot is complete).
        self.older_stores = older_stores
        self.had_ls_match = False
        self.committed = False
        #: The store whose data this load's forward waits on, once the
        #: match is decided (non-speculative loads only).
        self.wait_store: Optional["_Entry"] = None
        #: The older store a scan last stopped at for want of its LS
        #: bits (``ls_block``) or its full address (``full_block``); once
        #: that store resolves, it blocks nothing.
        self.ls_block: Optional["_Entry"] = None
        self.full_block: Optional["_Entry"] = None

    @property
    def data_ready(self) -> bool:
        return self.data_cycle >= 0


class LoadStoreQueue:
    """Centralized LSQ; drives the cache pipeline of the paper."""

    #: Cycles to forward store data to a matching load within the LSQ.
    FORWARD_LATENCY = 1

    def __init__(self, pipeline: CachePipeline, size: int = 128,
                 partial_enabled: bool = False,
                 ls_compare_bits: int = 8,
                 load_done: Optional[LoadDoneFn] = None,
                 dependence_predictor=None,
                 on_violation: Optional[Callable[[DynInstr, int], None]]
                 = None) -> None:
        if size < 1:
            raise ValueError("LSQ needs at least one entry")
        if not 1 <= ls_compare_bits <= 30:
            raise ValueError("LS compare bits out of range")
        self.pipeline = pipeline
        self.size = size
        self.partial_enabled = partial_enabled
        self._ls_mask = (1 << ls_compare_bits) - 1
        self.load_done = load_done
        #: Optional memory-dependence predictor: loads it deems
        #: independent skip the wait for older store addresses
        #: (Section 4's memory-dependence-speculation remark).
        self.dependence_predictor = dependence_predictor
        self.on_violation = on_violation
        self._entries: Dict[int, _Entry] = {}
        self._stores: List[_Entry] = []
        self._waiting_loads: List[_Entry] = []
        self._speculative_done: List[_Entry] = []
        # Statistics the paper quotes.
        self.loads_disambiguated = 0
        self.false_dependences = 0
        self.true_forwards = 0
        self.early_ram_starts = 0
        self.speculative_loads = 0
        self.violations = 0

    # -- occupancy ---------------------------------------------------------

    def has_room(self) -> bool:
        return len(self._entries) < self.size

    def occupancy(self) -> int:
        return len(self._entries)

    def ls_bits_of(self, addr: int) -> int:
        """The word-granular LS compare slice of an address."""
        return (addr >> 3) & self._ls_mask

    # -- pipeline events -----------------------------------------------------

    def allocate(self, instr: DynInstr) -> bool:
        """Reserve a slot at dispatch; False when the LSQ is full."""
        if not self.has_room():
            return False
        # release() drops committed stores, so every listed one is live.
        op = instr.rec.op
        is_store = op is _STORE
        older = list(self._stores) if op is _LOAD else []
        entry = _Entry(instr, is_store, older)
        self._entries[instr.seq] = entry
        if is_store:
            self._stores.append(entry)
        else:
            self._waiting_loads.append(entry)
            if self.dependence_predictor is not None:
                entry.wait_for_stores = (
                    self.dependence_predictor.predicts_dependence(
                        instr.rec.pc
                    )
                )
        instr.lsq_index = instr.seq
        return True

    def on_partial_address(self, instr: DynInstr, addr: int,
                           cycle: int) -> None:
        """LS bits arrived on L-Wires (accelerated pipeline only)."""
        entry = self._entries.get(instr.seq)
        if entry is None or entry.ls is not None:
            return
        entry.ls = self.ls_bits_of(addr)
        if entry.is_store:
            self._wake_loads(cycle)
        else:
            self._advance_load(entry, cycle)

    def on_full_address(self, instr: DynInstr, addr: int, cycle: int) -> None:
        """The complete effective address is now at the LSQ."""
        entry = self._entries.get(instr.seq)
        if entry is None or entry.full is not None:
            return
        entry.full = addr
        entry.full_cycle = cycle
        if entry.ls is None:
            entry.ls = self.ls_bits_of(addr)
        if entry.is_store:
            self._check_violations(entry, cycle)
            self._wake_loads(cycle)
        else:
            self._advance_load(entry, cycle)

    def on_store_data(self, instr: DynInstr, cycle: int) -> None:
        """Store data arrived (needed for forwarding and for commit)."""
        entry = self._entries.get(instr.seq)
        if entry is None or entry.data_ready:
            return
        entry.data_cycle = cycle
        instr.store_data_ready = True
        self._wake_loads(cycle)

    def release(self, instr: DynInstr) -> None:
        """Remove a committed instruction's entry."""
        entry = self._entries.pop(instr.seq, None)
        if entry is None:
            return
        entry.committed = True
        if entry.is_store:
            self._stores.remove(entry)
        else:
            if entry in self._waiting_loads:
                self._waiting_loads.remove(entry)
            if entry.speculated:
                self._speculative_done.remove(entry)
                if (self.dependence_predictor is not None
                        and not entry.violated):
                    self.dependence_predictor.record_independent(
                        entry.instr.rec.pc
                    )

    def store_ready_to_commit(self, instr: DynInstr) -> bool:
        """A store may commit once its address and data are at the LSQ."""
        entry = self._entries.get(instr.seq)
        if entry is None:
            return True
        return entry.full is not None and entry.data_ready

    # -- the disambiguation state machine ------------------------------------

    def _wake_loads(self, cycle: int) -> None:
        waiting = self._waiting_loads
        if not waiting:
            return
        partial = self.partial_enabled
        for entry in list(waiting):
            if entry.done:
                continue
            wait_store = entry.wait_store
            if wait_store is not None:
                if wait_store.data_cycle < 0:
                    continue
                entry.wait_store = None
            else:
                block = entry.full_block
                if entry.full is None or (block is not None
                                          and block.full is None):
                    # Final disambiguation cannot move; only an early
                    # RAM start can.
                    if not partial or entry.ram_started or entry.ls is None:
                        continue
                    block = entry.ls_block
                    if block is not None and block.ls is None:
                        continue
            self._advance_load(entry, cycle)

    def _live_older_stores(self, entry: _Entry) -> List[_Entry]:
        return [s for s in entry.older_stores if not s.committed]

    def _advance_load(self, entry: _Entry, cycle: int) -> None:
        if entry.done:
            return
        if not entry.wait_for_stores:
            self._advance_speculative_load(entry, cycle)
            return
        older = entry.older_stores
        if older and older[0].committed:
            older = entry.older_stores = self._live_older_stores(entry)

        # Early RAM start from LS bits (accelerated pipeline): once every
        # older store's LS bits are known and none matches.
        if (self.partial_enabled and not entry.ram_started
                and entry.ls is not None):
            entry_ls = entry.ls
            all_known = True
            ls_match = False
            for store in older:
                store_ls = store.ls
                if store_ls is None:
                    entry.ls_block = store
                    all_known = False
                    break
                if store_ls == entry_ls:
                    ls_match = True
            if all_known:
                if not ls_match:
                    entry.ram_started = True
                    entry.ram_done = self.pipeline.start_ram_early(
                        self._probe_addr(entry), cycle
                    )
                    self.early_ram_starts += 1
                else:
                    entry.had_ls_match = True

        # Final completion needs the full address and full disambiguation.
        if entry.full is None:
            return
        for store in older:
            if store.full is None:
                entry.full_block = store
                return

        match = None
        entry_full = entry.full
        for store in reversed(older):
            if store.full == entry_full:
                match = store
                break

        if match is not None:
            if match.data_cycle < 0:
                entry.wait_store = match
                return
            self._finish_forward(entry, match, cycle)
            return

        if entry.had_ls_match:
            self.false_dependences += 1
        self._finish_cache_access(entry, cycle)

    def _advance_speculative_load(self, entry: _Entry, cycle: int) -> None:
        """Predicted independent: skip the wait for older stores.

        The load still honours dependences already *visible* when its own
        address resolves; only not-yet-resolved older stores are
        speculated past (a later match is an ordering violation).
        """
        if (self.partial_enabled and not entry.ram_started
                and entry.ls is not None):
            entry.ram_started = True
            entry.ram_done = self.pipeline.start_ram_early(
                self._probe_addr(entry), cycle
            )
            self.early_ram_starts += 1
        if entry.full is None:
            return
        match = None
        for store in reversed(self._live_older_stores(entry)):
            if store.full is not None and store.full == entry.full:
                match = store
                break
        if match is not None:
            if not match.data_ready:
                return
            self._finish_forward(entry, match, cycle)
            return
        entry.speculated = True
        self.speculative_loads += 1
        self._speculative_done.append(entry)
        self._finish_cache_access(entry, cycle)

    def _check_violations(self, store: _Entry, cycle: int) -> None:
        """A store's address just resolved: any younger load that already
        completed speculatively against the same address violated
        program order."""
        for load in self._speculative_done:
            if (not load.violated
                    and load.full == store.full
                    and store in load.older_stores):
                load.violated = True
                self.violations += 1
                if self.dependence_predictor is not None:
                    self.dependence_predictor.record_dependence(
                        load.instr.rec.pc
                    )
                if self.on_violation is not None:
                    self.on_violation(load.instr, cycle)

    def _probe_addr(self, entry: _Entry) -> int:
        """Address used for early RAM indexing.

        The RAM arrays are indexed by LS bits, which we have; the full
        address (known to the trace) selects the bank deterministically.
        """
        instr = entry.instr
        return instr.rec.addr

    def _finish_forward(self, entry: _Entry, store: _Entry,
                        cycle: int) -> None:
        entry.done = True
        self.loads_disambiguated += 1
        self.true_forwards += 1
        if self.dependence_predictor is not None:
            self.dependence_predictor.record_dependence(entry.instr.rec.pc)
        done = max(cycle, store.data_cycle) + self.FORWARD_LATENCY
        self._waiting_loads.remove(entry)
        if self.load_done is not None:
            self.load_done(entry.instr, done, _FORWARD)

    def _finish_cache_access(self, entry: _Entry, cycle: int) -> None:
        entry.done = True
        self.loads_disambiguated += 1
        addr = entry.instr.rec.addr
        if entry.ram_started:
            result = self.pipeline.finish_early_access(
                addr, entry.ram_done, entry.full_cycle
            )
        else:
            result = self.pipeline.baseline_access(
                addr, max(cycle, entry.full_cycle)
            )
        self._waiting_loads.remove(entry)
        if self.load_done is not None:
            self.load_done(entry.instr, result.done_cycle, result.level)

    # -- statistics ------------------------------------------------------------

    @property
    def false_dependence_rate(self) -> float:
        """Fraction of disambiguated loads that hit a false LS-bit alias."""
        if not self.loads_disambiguated:
            return 0.0
        return self.false_dependences / self.loads_disambiguated
