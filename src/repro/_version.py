"""Single source of the package version, and of source-tree digests.

Prefers installed-distribution metadata; falls back to parsing
``pyproject.toml`` when running from a source checkout (the common case
for this repository: ``PYTHONPATH=src python -m repro``).

:func:`source_digest` hashes a package's own source.  The result cache
(``harness/runner.py``) keys its entries by it, so any edit to the
simulator code that produced an entry makes it unreachable -- no
version is kept by hand.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Iterable

_FALLBACK = "0.0.0+unknown"


def source_digest(package_dir: Path, exclude: Iterable[str] = ()) -> str:
    """sha256 hex digest of every ``*.py`` file under ``package_dir``.

    Files are taken in order of their relative POSIX path, and each
    contributes that path and its raw bytes.  ``exclude`` names
    top-level entries of ``package_dir`` (subpackages or modules) to
    leave out.  Raw bytes, not a normalized form (AST, tokens): reading
    the simulator's bytes takes milliseconds where parsing it takes a
    large share of the interpreter's start-up, so a comment-only edit
    counts as a change.
    """
    skip = frozenset(exclude)
    files = sorted(
        (path.relative_to(package_dir).as_posix(), path)
        for path in package_dir.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        if rel.split("/", 1)[0] in skip:
            continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _from_metadata() -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - py<3.8
        return ""
    try:
        return version("repro")
    except PackageNotFoundError:
        return ""


def _from_pyproject() -> str:
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text()
    except OSError:
        return ""
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
    )
    return match.group(1) if match else ""


def package_version() -> str:
    """The repro package version string."""
    return _from_metadata() or _from_pyproject() or _FALLBACK
