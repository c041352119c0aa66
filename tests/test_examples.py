"""Every script under ``examples/`` runs: each ``main()`` at a smoke size.

A script's window (``INSTRUCTIONS``/``WARMUP``), trace length
(``STREAM``) and benchmark list (``BENCHMARKS``) are module constants,
shrunk here so the whole module stays fast.  Scripts that read the
command line see none, and the result cache is a fresh directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))

#: The module constants a script may read, at smoke size.
SMALL = {
    "INSTRUCTIONS": 300,
    "WARMUP": 60,
    "STREAM": 2000,
    "BENCHMARKS": ("gzip",),
}


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [str(path)])
    module = load(path)
    for name, value in SMALL.items():
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)
    module.main()
    assert capsys.readouterr().out.strip()
