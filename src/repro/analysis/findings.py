"""What a lint run produces: findings with stable fingerprints.

A finding's *fingerprint* deliberately excludes the line number: the
baseline must keep matching a known violation while unrelated edits
move it around the file.  Two identical violations in one file share a
fingerprint; the baseline therefore stores a per-fingerprint *count*
rather than a set (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str  # e.g. "SIM301"
    message: str  # human sentence; stable across unrelated edits
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as reported by ast

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline."""
        payload = f"{self.path}::{self.code}::{self.message}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")

    def to_json(self) -> Dict[str, object]:
        data = asdict(self)
        data["fingerprint"] = self.fingerprint()
        return data
