"""Shared fixtures: isolate every test from the ambient cache config.

CI runs the suite with ``REPRO_NO_CACHE=1`` (so the committed seed cache
cannot mask simulator regressions), while developers may have
``REPRO_CACHE_DIR`` pointing anywhere.  Tests that exercise the cache
layer construct their own ``ResultCache(tmp_path)`` and must see neither
setting, so both are cleared for every test; tests that *want* them set
them explicitly via ``monkeypatch``.

The golden-corpus helpers (``tests/golden/golden.py``) are importable as
``golden`` from every test.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))


@pytest.fixture(autouse=True)
def _clean_cache_environment(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
