"""The annotated-trace memo: one trace key at a time, and the prewarm
images of a trace live on the trace."""

import gc
import weakref

import pytest

from repro.core.models import model
from repro.core.simulation import build_processor
from repro.memory.cache import SetAssocCache
from repro.workloads import annotate

#: The default machine's I-cache (32 KB, 2-way) at the default seed.
GZIP = ("gzip", 42, 32, 2)
MCF = ("mcf", 42, 32, 2)


@pytest.fixture(autouse=True)
def cold_memo():
    annotate.clear_cache()
    yield
    annotate.clear_cache()


@pytest.fixture
def prewarms(monkeypatch):
    """The (base, size) of every ``SetAssocCache.prewarm_region`` call."""
    calls = []
    prewarm_region = SetAssocCache.prewarm_region

    def counted(self, base, size):
        calls.append((base, size))
        return prewarm_region(self, base, size)

    monkeypatch.setattr(SetAssocCache, "prewarm_region", counted)
    return calls


def trace_of(model_name, benchmark):
    return build_processor(model(model_name).config, benchmark)._trace


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


class TestPrewarmImages:
    def test_the_second_plan_of_a_key_restores_the_images(self, prewarms):
        first = build_processor(model("I").config, "mcf")
        assert prewarms  # the first run of a key computes the warmup
        trace = first._trace
        assert len(trace.prewarm_images) == 2  # the L2's and the L1's
        prewarms.clear()
        second = build_processor(model("VII").config, "mcf")
        assert second._trace is trace
        assert prewarms == []
        for level in ("l1", "l2"):
            assert (getattr(second.hierarchy, level).image()
                    == getattr(first.hierarchy, level).image())

    def test_a_new_key_drops_the_old_traces_images(self, prewarms):
        old = weakref.ref(trace_of("I", "mcf"))
        assert old().prewarm_images
        prewarms.clear()
        new = trace_of("I", "gzip")
        assert prewarms  # nothing of mcf's warmup is reused for gzip
        assert annotate._CACHE == {GZIP: new}
        gc.collect()
        assert old() is None

    def test_clear_cache_drops_the_images(self, prewarms):
        trace_of("I", "mcf")
        annotate.clear_cache()
        prewarms.clear()
        trace_of("I", "mcf")
        assert prewarms
