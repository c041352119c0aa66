"""The annotated-trace memo: one trace key at a time, annotated only as
far as fetch reaches, and shared by processors that share no cache
state."""

import gc
import weakref

import pytest

from repro.core.models import model
from repro.core.simulation import build_processor
from repro.workloads import annotate

#: The default machine's I-cache (32 KB, 2-way) at the default seed.
GZIP = ("gzip", 42, 32, 2)
MCF = ("mcf", 42, 32, 2)


@pytest.fixture(autouse=True)
def cold_memo():
    annotate.clear_cache()
    yield
    annotate.clear_cache()


class TestOneKey:
    def test_a_key_is_annotated_once(self):
        trace = annotate.annotated_trace(*GZIP)
        assert annotate.annotated_trace(*GZIP) is trace

    def test_a_new_key_replaces_the_old_one(self):
        gzip = annotate.annotated_trace(*GZIP)
        annotate.annotated_trace(*MCF)
        assert list(annotate._CACHE) == [MCF]
        assert annotate.annotated_trace(*GZIP) is not gzip
        assert list(annotate._CACHE) == [GZIP]

    def test_clear_cache_empties_the_memo(self):
        trace = annotate.annotated_trace(*GZIP)
        annotate.clear_cache()
        assert annotate._CACHE == {}
        assert annotate.annotated_trace(*GZIP) is not trace

    def test_a_new_key_frees_the_old_trace(self):
        old = weakref.ref(annotate.annotated_trace(*MCF))
        annotate.annotated_trace(*GZIP)
        gc.collect()
        assert old() is None


class TestOneTraceManyProcessors:
    def test_processors_of_one_trace_share_no_set(self):
        """Both processors prewarm lazily over one trace's footprint; a
        miss that fills a set in one leaves the other's caches as
        they were."""
        first = build_processor(model("I").config, "mcf")
        second = build_processor(model("VII").config, "mcf")
        assert first._trace is second._trace
        region_base = first._trace.footprint[0][0]
        for level in ("l1", "l2"):
            a = getattr(first.hierarchy, level)
            b = getattr(second.hierarchy, level)
            assert a.contains(region_base) == b.contains(region_base)
            assert not a.access(0x7FFF0000)  # fills the set in a only
            assert a.contains(0x7FFF0000)
            assert not b.contains(0x7FFF0000)
            assert (b.accesses, b.misses) == (0, 0)
            assert all(a._sets[i] is not b._sets[i]
                       for i in a._sets.keys() & b._sets.keys())

    def test_annotation_stops_a_chunk_past_fetch(self):
        """A 4000 + 1000 run annotates at most 511 records that fetch
        never reached."""
        cpu = build_processor(model("X").config, "mcf")
        cpu.run(1000, warmup=4000)
        fetched = cpu.fetch._seq
        assert fetched <= len(cpu._trace) < fetched + annotate.CHUNK
        assert annotate.CHUNK <= 512
