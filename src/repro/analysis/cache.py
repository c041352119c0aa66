"""The incremental lint cache (``.simlint-cache/``).

Warm runs must not re-parse the world.  The cache stores, per source
file, everything phase 1 produces: the per-file findings, the
:class:`~repro.analysis.facts.ModuleFacts` reduction the project
passes consume, the suppression map, and any parse/suppression error
-- all JSON, so a hit costs one small file read and zero AST work.

Keys are content hashes, never mtimes:

* a **file entry** is valid iff ``sha256(source)`` matches *and* the
  analyzer itself is unchanged (:func:`analysis_signature` hashes
  every ``repro.analysis`` source file, so editing a rule invalidates
  everything it might now judge differently);
* the **project entry** (findings of the whole-program passes) is
  keyed over the sorted ``(rel, file key)`` list -- any file changing,
  appearing or disappearing re-links the project, because a one-line
  edit in module A can create or destroy findings reported against
  module B.

Entries are select-independent: every rule always runs, and the
engine filters findings afterwards, so one cache serves every
``--select`` combination.  Writes go through a temp file +
``os.replace`` so a crashed run never leaves a torn entry, and every
read treats corruption as a miss -- the cache can be deleted at any
time at no cost but a cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from .._version import source_digest

_FORMAT_VERSION = 1

#: Default cache directory name, created at the detected repo root.
CACHE_DIR_NAME = ".simlint-cache"

_signature_memo: Optional[str] = None


def analysis_signature() -> str:
    """Content hash of the analyzer's own source (memoized).

    Any edit under ``repro.analysis`` -- a rule, the engine, this file
    -- changes the signature and therefore invalidates every cache
    entry.  Cheaper and far safer than versioning rules by hand.
    """
    global _signature_memo
    if _signature_memo is None:
        _signature_memo = source_digest(Path(__file__).resolve().parent)[:16]
    return _signature_memo


def source_key(source: str) -> str:
    """Cache key of one file's content under the current analyzer."""
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\0")
    digest.update(analysis_signature().encode("ascii"))
    return digest.hexdigest()[:24]


def project_key(file_keys: Dict[str, str]) -> str:
    """Cache key of the whole-program pass over a set of files."""
    digest = hashlib.sha256()
    for rel in sorted(file_keys):
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(file_keys[rel].encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()[:24]


class LintCache:
    """One cache directory; all methods treat failure as a miss."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.project_hit = False

    # -- layout ----------------------------------------------------------

    def _entry_path(self, rel: str) -> Path:
        name = hashlib.sha256(rel.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{name}.json"

    def _project_path(self) -> Path:
        return self.directory / "project.json"

    # -- file entries ----------------------------------------------------

    def load_file(self, rel: str, key: str) -> Optional[dict]:
        """The cached phase-1 payload for ``rel``, if still valid."""
        entry = self._read(self._entry_path(rel))
        if (entry is None or entry.get("key") != key
                or entry.get("rel") != rel):
            self.misses += 1
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store_file(self, rel: str, key: str, payload: dict) -> None:
        self._write(self._entry_path(rel), {
            "version": _FORMAT_VERSION,
            "rel": rel,
            "key": key,
            "payload": payload,
        })

    # -- the project entry -----------------------------------------------

    def load_project(self, key: str) -> Optional[List[dict]]:
        entry = self._read(self._project_path())
        if entry is None or entry.get("key") != key:
            return None
        findings = entry.get("findings")
        if not isinstance(findings, list):
            return None
        self.project_hit = True
        return findings

    def store_project(self, key: str, findings: List[dict]) -> None:
        self._write(self._project_path(), {
            "version": _FORMAT_VERSION,
            "key": key,
            "findings": findings,
        })

    # -- I/O -------------------------------------------------------------

    def _read(self, path: Path) -> Optional[dict]:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(data, dict)
                or data.get("version") != _FORMAT_VERSION):
            return None
        return data

    def _write(self, path: Path, data: dict) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(data, handle, sort_keys=True)
                os.replace(tmp_name, path)
            except OSError:
                os.unlink(tmp_name)
                raise
        except OSError:
            # A read-only or vanished cache directory must never fail
            # the lint run; the next run simply goes cold.
            return
