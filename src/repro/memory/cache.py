"""Set-associative cache timing model.

Tracks only tags and LRU state -- the simulator is timing-only, so no data
is stored.  Used for the L1 instruction cache, the centralized L1 data
cache (Table 1: 32KB 4-way, 6 cycles, 4-way word-interleaved) and the
unified L2 (8MB 8-way, 30 cycles).

Prewarming is lazy: :meth:`SetAssocCache.prewarm_region` records the
region, and a set that no lookup has touched yet takes its prewarmed
tags from the recorded regions, in prewarm order, when a lookup first
reaches it.  A run that touches a few hundred of the L2's 32,768 sets
fills only those.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class SetAssocCache:
    """An LRU set-associative cache with hit/miss statistics."""

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError("cache dimensions must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        num_lines = size_bytes // line_size
        if num_lines < assoc or num_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes} bytes / {line_size}B lines does not "
                f"divide into {assoc}-way sets"
            )
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_lines // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        self._set_mask = self.num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self._sets_bits = self.num_sets.bit_length() - 1
        # Sparse: sets materialize on first touch, MRU-first tags.
        self._sets: Dict[int, List[int]] = {}
        #: Prewarmed (first line, last line) regions, in prewarm order,
        #: that untouched sets have yet to take.
        self._regions: List[Tuple[int, int]] = []
        self.accesses = 0
        self.misses = 0

    def _index_tag(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._sets_bits

    def access(self, addr: int, allocate: bool = True) -> bool:
        """Touch ``addr``; returns True on a hit.  Misses allocate (LRU
        eviction) unless ``allocate`` is False."""
        self.accesses += 1
        index, tag = self._index_tag(addr)
        entries = self._sets.get(index)
        if entries is None and self._regions:
            entries = self._first_touch(index)
        if entries is not None:
            try:
                pos = entries.index(tag)
            except ValueError:
                pos = -1
            if pos >= 0:
                if pos:
                    entries.insert(0, entries.pop(pos))
                return True
        self.misses += 1
        if allocate:
            if entries is None:
                self._sets[index] = [tag]
            else:
                entries.insert(0, tag)
                del entries[self.assoc:]
        return False

    def contains(self, addr: int) -> bool:
        """Presence check: no stats, no LRU update.  It may materialize
        an untouched set's prewarmed tags."""
        index, tag = self._index_tag(addr)
        entries = self._sets.get(index)
        if entries is None and self._regions:
            entries = self._first_touch(index)
        return entries is not None and tag in entries

    def _first_touch(self, index: int) -> List[int]:
        """Materialize an untouched set from the prewarmed regions."""
        tags: List[int] = []
        for first_line, last_line in self._regions:
            tags = self._warm_set(index, first_line, last_line, tags)
        self._sets[index] = tags
        return tags

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def prewarm_region(self, base: int, size: int) -> None:
        """Install a contiguous region as if touched by one sequential pass.

        Analytic stand-in for a long cache-warmup phase (the paper warms
        structures over a million instructions before measuring): after a
        sequential walk of ``[base, base + size)``, each set holds the
        *last* ``assoc`` lines that mapped to it.  Sets already touched
        take the region now; the rest take it on first touch, so the
        cost is O(touched sets) rather than O(lines) or O(sets).
        """
        if size <= 0:
            return
        first_line = base >> self._line_shift
        last_line = (base + size - 1) >> self._line_shift
        sets = self._sets
        for index, tags in sets.items():
            sets[index] = self._warm_set(index, first_line, last_line, tags)
        self._regions.append((first_line, last_line))

    def _warm_set(self, index: int, first_line: int, last_line: int,
                  tags: List[int]) -> List[int]:
        """Set ``index``'s tags (MRU first) after a sequential pass over
        lines ``[first_line, last_line]`` that found ``tags`` resident."""
        num_sets = self.num_sets
        line = first_line + ((index - first_line) & self._set_mask)
        if line > last_line:
            return tags
        # Lines mapping to this set: line, line + num_sets, ... ; the
        # most recent (largest) ones survive, youngest first.
        count = (last_line - line) // num_sets + 1
        newest = line + (count - 1) * num_sets
        sets_bits = self._sets_bits
        warmed = [
            (newest - k * num_sets) >> sets_bits
            for k in range(min(count, self.assoc))
        ]
        warmed += [t for t in tags if t not in warmed]
        return warmed[:self.assoc]

    def set_index(self, addr: int) -> int:
        """The set-index bits of an address -- the bits the paper's
        partial-address L-Wire transfer must carry to start RAM access."""
        return (addr >> self._line_shift) & self._set_mask
