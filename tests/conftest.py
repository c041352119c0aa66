"""Shared fixtures: isolate every test from the ambient cache config.

CI runs the suite with ``REPRO_NO_CACHE=1`` (so every run simulates
afresh), while developers may have ``REPRO_CACHE_DIR`` pointing
anywhere.  Tests that exercise the cache
layer construct their own ``ResultCache(tmp_path)`` and must see neither
setting, so both are cleared for every test; tests that *want* them set
them explicitly via ``monkeypatch``.

The golden-corpus helpers (``tests/golden/golden.py``) are importable as
``golden`` from every test, and the ``traced`` fixture builds processors
whose runs record every event.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))


@pytest.fixture(autouse=True)
def _clean_cache_environment(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TracedRuns:
    """Processors with an unbounded event trace, and counts over it.

    A run records what its mechanisms did as events (a wire-selection
    reason, a steering overflow, a plane kill), so a test reads such a
    fact from the trace rather than from a counter kept for it.
    """

    @staticmethod
    def telemetry():
        """A handle whose sink keeps every event of a run."""
        from repro.telemetry import RingBufferSink, Telemetry
        return Telemetry(sink=RingBufferSink(capacity=None))

    def build(self, interconnect, benchmark, **kwargs):
        """``build_processor`` with :meth:`telemetry` attached."""
        from repro.core.simulation import build_processor
        return build_processor(interconnect, benchmark,
                               telemetry=self.telemetry(), **kwargs)

    @staticmethod
    def count(component, kind: str, /, **attrs) -> int:
        """Events of ``kind`` (its value, e.g. ``"wire_selected"``) on
        ``component``'s handle whose attributes match ``attrs``."""
        return sum(
            1 for event in component.telemetry.events()
            if event.kind.value == kind
            and all(event.attr(name) == value
                    for name, value in attrs.items()))


@pytest.fixture
def traced():
    return TracedRuns()
