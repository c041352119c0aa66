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


class TestImages:
    """Copy-on-write images: restored sets are shared tag tuples."""

    def warmed(self):
        """Sets 0-7 of a 16-set 2-way cache full, sets 8-15 empty."""
        cache = make_cache(size=1024, assoc=2, line=32)
        cache.prewarm_region(0x4000, 256)
        cache.prewarm_region(0x8000, 256)
        return cache

    def test_image_is_tuples_of_the_resident_tags(self):
        image = self.warmed().image()
        assert sorted(image) == list(range(8))
        assert all(isinstance(tags, tuple) and len(tags) == 2
                   for tags in image.values())

    def test_restored_caches_are_independent(self):
        """A hit that reorders, a miss that evicts and a miss that fills a
        new set in one restored cache change neither the other restored
        cache nor the image."""
        image = self.warmed().image()
        frozen = dict(image)
        a, b = make_cache(), make_cache()
        a.restore(image)
        b.restore(image)
        # Set 0 holds 0x8000 (MRU) and 0x4000 (LRU).
        assert a.access(0x4000)            # hit: reorders set 0
        assert not a.access(0x100000)      # miss in set 0: evicts 0x8000
        assert not a.access(0x4100)        # miss into empty set 8
        assert a.contains(0x4000) and a.contains(0x100000)
        assert a.contains(0x4100) and not a.contains(0x8000)
        assert image == frozen
        assert all(isinstance(tags, tuple) for tags in image.values())
        assert b.image() == frozen
        assert b.contains(0x8000) and b.contains(0x4000)
        assert not b.contains(0x100000) and not b.contains(0x4100)
        assert b.accesses == 0

    def test_restored_cache_behaves_like_a_prewarmed_one(self):
        direct = self.warmed()
        restored = make_cache()
        restored.restore(self.warmed().image())
        probes = [base + 32 * k for base in (0x4000, 0x8000, 0x100000)
                  for k in range(-4, 20, 3)]
        probes += probes[::-1]
        for addr in probes:
            assert restored.contains(addr) == direct.contains(addr)
            assert restored.access(addr) == direct.access(addr), hex(addr)
        assert (restored.accesses, restored.misses) == (
            direct.accesses, direct.misses)
        assert restored.image() == direct.image()

    def test_prewarm_region_over_restored_sets(self):
        direct = self.warmed()
        restored = make_cache()
        restored.restore(self.warmed().image())
        for cache in (direct, restored):
            cache.prewarm_region(0x20000, 384)
        assert restored.image() == direct.image()
        assert restored.contains(0x20000) and restored.contains(0x8000)
        assert not restored.contains(0x4000)

    def test_back_to_back_plans_are_identical(self):
        """The second run restores the first run's prewarm image; both
        runs, and a cold one, give the same BenchmarkRun."""
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
