"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import SetAssocCache


def make_cache(size=1024, assoc=2, line=32):
    return SetAssocCache(size, assoc, line, name="test")


class TestBasics:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_hits(self):
        cache = make_cache(line=32)
        cache.access(0x1000)
        assert cache.access(0x101F)
        assert not cache.access(0x1020)

    def test_miss_without_allocate(self):
        cache = make_cache()
        assert not cache.access(0x1000, allocate=False)
        assert not cache.access(0x1000)  # still not resident

    def test_stats(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.accesses == 3
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)

    def test_miss_rate_empty(self):
        assert make_cache().miss_rate == 0.0

    def test_contains_is_non_destructive(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.contains(0x1000)
        assert not cache.contains(0x2000)
        assert cache.accesses == 1


class TestLRU:
    def test_lru_eviction(self):
        cache = make_cache(size=64, assoc=2, line=32)  # one set
        cache.access(0x0)
        cache.access(0x1000)
        cache.access(0x0)        # refresh 0x0
        cache.access(0x2000)     # evicts 0x1000
        assert cache.contains(0x0)
        assert not cache.contains(0x1000)
        assert cache.contains(0x2000)

    def test_associativity_bound(self):
        cache = make_cache(size=128, assoc=4, line=32)  # one 4-way set
        for i in range(4):
            cache.access(i * 0x1000)
        assert all(cache.contains(i * 0x1000) for i in range(4))
        cache.access(4 * 0x1000)
        assert not cache.contains(0)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssocCache(0, 2, 32)
        with pytest.raises(ValueError):
            SetAssocCache(1024, 2, 33)  # line not power of two
        with pytest.raises(ValueError):
            SetAssocCache(96, 4, 32)  # does not divide into sets

    def test_table1_l1_dimensions(self):
        l1 = SetAssocCache(32 * 1024, 4, 32, "L1D")
        assert l1.num_sets == 256

    def test_set_index_uses_ls_bits(self):
        """The partial-address pipeline needs 8 bits for the L1 set index
        (256 sets at 4-way, Table 1 sizes)."""
        l1 = SetAssocCache(32 * 1024, 4, 32, "L1D")
        assert l1.num_sets == 1 << 8
        assert l1.set_index(0x1000) == l1.set_index(0x1000 + 256 * 32)


class TestPrewarm:
    def test_prewarmed_region_hits(self):
        cache = make_cache(size=4096, assoc=4, line=32)
        cache.prewarm_region(0x10000, 2048)
        assert cache.contains(0x10000)
        assert cache.contains(0x10000 + 2047)

    def test_prewarm_oversized_region_keeps_tail(self):
        """One sequential pass over a region larger than the cache leaves
        the most recent lines resident."""
        cache = make_cache(size=1024, assoc=2, line=32)
        cache.prewarm_region(0x0, 8192)
        assert cache.contains(8192 - 32)
        assert not cache.contains(0x0)

    def test_prewarm_empty_region_noop(self):
        cache = make_cache()
        cache.prewarm_region(0x1000, 0)
        assert not cache.contains(0x1000)

    def test_prewarm_matches_sequential_walk(self):
        """Analytic prewarm must equal an actual line-by-line walk."""
        base, size = 0x4000, 4096
        analytic = make_cache(size=1024, assoc=2, line=32)
        walked = make_cache(size=1024, assoc=2, line=32)
        analytic.prewarm_region(base, size)
        for addr in range(base, base + size, 32):
            walked.access(addr)
        for addr in range(base, base + size, 32):
            assert analytic.contains(addr) == walked.contains(addr), hex(addr)

    @given(base=st.integers(min_value=0, max_value=1 << 20),
           size=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_prewarm_equivalence_property(self, base, size):
        analytic = make_cache(size=512, assoc=2, line=64)
        walked = make_cache(size=512, assoc=2, line=64)
        analytic.prewarm_region(base, size)
        for addr in range((base // 64) * 64, base + size, 64):
            walked.access(addr)
        for addr in range((base // 64) * 64, base + size, 64):
            assert analytic.contains(addr) == walked.contains(addr)

    def test_back_to_back_plans_are_identical(self):
        """Two runs back to back on one memoized trace, and a cold one,
        give the same BenchmarkRun."""
        from repro.core.models import model
        from repro.core.simulation import simulate_benchmark
        from repro.workloads import annotate

        config = model("X").config

        def run():
            return simulate_benchmark(config, "mcf", instructions=400,
                                      warmup=100)

        annotate.clear_cache()
        first = run()
        second = run()
        annotate.clear_cache()
        cold = run()
        assert first == second == cold


def prewarm_every_set(cache, base, size):
    """The reference: every set of the cache takes the region at once,
    as one sequential pass over it leaves them."""
    if size <= 0:
        return
    first_line = base >> cache._line_shift
    last_line = (base + size - 1) >> cache._line_shift
    sets_bits = cache.num_sets.bit_length() - 1
    for index in range(cache.num_sets):
        offset = (index - first_line) & cache._set_mask
        line = first_line + offset
        if line > last_line:
            continue
        count = (last_line - line) // cache.num_sets + 1
        resident = min(count, cache.assoc)
        newest = line + (count - 1) * cache.num_sets
        tags = [
            (newest - k * cache.num_sets) >> sets_bits
            for k in range(resident)
        ]
        existing = cache._sets.get(index)
        if existing:
            tags += [t for t in existing if t not in tags]
        cache._sets[index] = tags[:cache.assoc]


#: A lookup: (address, "access" | "no-allocate" | "contains").
LOOKUP = st.tuples(st.integers(min_value=0, max_value=0x3000),
                   st.sampled_from(("access", "no-allocate", "contains")))
#: A region: 16-set 2-way 32B-line caches hold 1 KiB, so sizes up to
#: 4 KiB include regions larger than the cache; bases up to 0x2000 make
#: regions overlap.
REGION = st.tuples(st.integers(min_value=0, max_value=0x2000),
                   st.integers(min_value=1, max_value=4096))


class TestLazyPrewarm:
    """Lazy prewarm holds, lookup for lookup, what eager prewarm held."""

    @staticmethod
    def lookup(cache, addr, kind):
        if kind == "contains":
            return cache.contains(addr)
        return cache.access(addr, allocate=kind == "access")

    @given(before=st.lists(LOOKUP, max_size=12),
           regions=st.lists(st.tuples(REGION, st.lists(LOOKUP, max_size=12)),
                            min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_lazy_equals_eager(self, before, regions):
        lazy = make_cache(size=1024, assoc=2, line=32)
        eager = make_cache(size=1024, assoc=2, line=32)
        steps = list(before)
        for region, after in regions:
            steps.append((region, "prewarm"))
            steps.extend(after)
        for arg, kind in steps:
            if kind == "prewarm":
                lazy.prewarm_region(*arg)
                prewarm_every_set(eager, *arg)
                continue
            assert (self.lookup(lazy, arg, kind)
                    == self.lookup(eager, arg, kind)), (hex(arg), kind)
        probes = range(0, 0x3000 + 4096, 32)
        assert ([lazy.contains(a) for a in probes]
                == [eager.contains(a) for a in probes])
        assert (lazy.accesses, lazy.misses) == (eager.accesses, eager.misses)

    def test_prewarm_touches_no_untouched_set(self):
        cache = make_cache(size=4096, assoc=4, line=32)
        cache.prewarm_region(0x10000, 8192)
        assert cache._sets == {}
        assert cache.contains(0x10000 + 8192 - 32)
        assert list(cache._sets) == [cache.set_index(0x10000 + 8192 - 32)]

    def test_first_touch_moves_no_statistic(self):
        cache = make_cache()
        cache.prewarm_region(0x4000, 512)
        assert cache.contains(0x4000)
        assert not cache.contains(0x8000)
        assert (cache.accesses, cache.misses) == (0, 0)
        assert cache.access(0x4020)
        assert (cache.accesses, cache.misses) == (1, 0)

    def test_a_touched_set_takes_a_later_region_at_once(self):
        """A region prewarmed after a set's first touch lands on top of
        the set's tags, MRU first, as an eager pass would put it."""
        cache = make_cache(size=64, assoc=2, line=32)  # one set
        cache.access(0x0)
        cache.prewarm_region(0x1000, 32)
        assert cache._sets[0] == [0x1000 >> 5, 0]
        assert cache.access(0x0) and cache.access(0x1000)

    def test_an_mcf_run_fills_few_l2_sets(self):
        from repro.core.models import model
        from repro.core.simulation import build_processor
        from repro.workloads import annotate

        annotate.clear_cache()
        cpu = build_processor(model("X").config, "mcf")
        cpu.run(1000, warmup=4000)
        l2 = cpu.hierarchy.l2
        assert l2.num_sets == 32768
        assert 0 < len(l2._sets) < 1000
