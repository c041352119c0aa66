"""Set-associative cache timing model.

Tracks only tags and LRU state -- the simulator is timing-only, so no data
is stored.  Used for the L1 instruction cache, the centralized L1 data
cache (Table 1: 32KB 4-way, 6 cycles, 4-way word-interleaved) and the
unified L2 (8MB 8-way, 30 cycles).

A cache's contents can be saved with :meth:`SetAssocCache.image` and
installed in another cache of the same geometry with
:meth:`SetAssocCache.restore`.  Restored sets are shared tag tuples,
copied to a list only when an access first changes that set, so a
restore allocates one dict and no per-set list.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


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
        # Sparse: sets materialize on first touch, MRU-first tags.  A set
        # restored from an image is a tuple until an access changes it.
        self._sets: Dict[int, Sequence[int]] = {}
        self.accesses = 0
        self.misses = 0

    def _index_tag(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> (self.num_sets.bit_length() - 1)

    def access(self, addr: int, allocate: bool = True) -> bool:
        """Touch ``addr``; returns True on a hit.  Misses allocate (LRU
        eviction) unless ``allocate`` is False."""
        self.accesses += 1
        index, tag = self._index_tag(addr)
        entries = self._sets.get(index)
        if entries is not None:
            try:
                pos = entries.index(tag)
            except ValueError:
                pos = -1
            if pos >= 0:
                if pos:
                    if entries.__class__ is tuple:
                        entries = self._sets[index] = list(entries)
                    entries.insert(0, entries.pop(pos))
                return True
        self.misses += 1
        if allocate:
            if entries is None:
                self._sets[index] = [tag]
            else:
                if entries.__class__ is tuple:
                    entries = self._sets[index] = list(entries)
                entries.insert(0, tag)
                del entries[self.assoc:]
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        index, tag = self._index_tag(addr)
        entries = self._sets.get(index)
        return entries is not None and tag in entries

    def image(self) -> Dict[int, Tuple[int, ...]]:
        """The resident tags of every touched set, MRU first, as tuples.

        No statistics are included.  The image shares nothing mutable
        with the cache: later accesses leave it unchanged.
        """
        return {index: tuple(tags) for index, tags in self._sets.items()}

    def restore(self, image: Dict[int, Tuple[int, ...]]) -> None:
        """Replace the contents with ``image`` (from :meth:`image` of a
        cache of the same geometry); statistics are kept.

        The sets stay the image's tuples until an access changes them, so
        one image can back any number of caches."""
        self._sets = dict(image)

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
        *last* ``assoc`` lines that mapped to it.  O(sets) instead of
        O(lines), so multi-megabyte working sets prewarm instantly.
        """
        if size <= 0:
            return
        first_line = base >> self._line_shift
        last_line = (base + size - 1) >> self._line_shift
        sets_bits = self.num_sets.bit_length() - 1
        for index in range(self.num_sets):
            offset = (index - first_line) & self._set_mask
            line = first_line + offset
            if line > last_line:
                continue
            # Lines mapping to this set: line, line + num_sets, ... ; the
            # most recent (largest) ones survive, youngest first.
            count = (last_line - line) // self.num_sets + 1
            resident = min(count, self.assoc)
            newest = line + (count - 1) * self.num_sets
            tags = [
                (newest - k * self.num_sets) >> sets_bits
                for k in range(resident)
            ]
            existing = self._sets.get(index)
            if existing:
                tags += [t for t in existing if t not in tags]
            self._sets[index] = tags[:self.assoc]

    def set_index(self, addr: int) -> int:
        """The set-index bits of an address -- the bits the paper's
        partial-address L-Wire transfer must carry to start RAM access."""
        return (addr >> self._line_shift) & self._set_mask
