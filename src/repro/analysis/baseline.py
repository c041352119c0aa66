"""The committed findings baseline.

The baseline lets the CI gate fail *new* findings while known,
deliberately-accepted violations stay green.  It is a JSON file mapping
line-independent fingerprints (:meth:`Finding.fingerprint`) to an
allowed count plus a human note explaining *why* the violation is
acceptable -- an entry without a rationale is a code smell, so
``--write-baseline`` keeps the note of every entry already in the file
and stamps every new entry with ``"TODO: justify"``.

Counts, not sets: two identical violations in one file share a
fingerprint, and the baseline must not silently cover a third copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .findings import Finding

_FORMAT_VERSION = 1


class BaselineError(ValueError):
    """The baseline file exists but cannot be used."""


@dataclass
class Baseline:
    """Allowed findings, keyed by fingerprint."""

    #: fingerprint -> (allowed count, note, path, code, message)
    entries: Dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise BaselineError(f"baseline {path} is not valid JSON: {exc}")
        if (not isinstance(data, dict)
                or data.get("version") != _FORMAT_VERSION
                or not isinstance(data.get("entries"), list)):
            raise BaselineError(
                f"baseline {path} has an unsupported format "
                f"(expected version {_FORMAT_VERSION})"
            )
        entries: Dict[str, dict] = {}
        for raw in data["entries"]:
            if (not isinstance(raw, dict)
                    or not isinstance(raw.get("fingerprint"), str)):
                raise BaselineError(
                    f"baseline {path} contains a malformed entry: {raw!r}"
                )
            entry = entries.setdefault(raw["fingerprint"], {
                "count": 0,
                "note": raw.get("note", ""),
                "path": raw.get("path", ""),
                "code": raw.get("code", ""),
                "message": raw.get("message", ""),
            })
            entry["count"] += int(raw.get("count", 1))
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: List[Finding],
                      notes: Optional[Dict[str, str]] = None
                      ) -> "Baseline":
        """Entries for ``findings``; ``notes`` (fingerprint -> note)
        carries rationales over, every other entry is ``TODO: justify``.
        """
        notes = notes or {}
        entries: Dict[str, dict] = {}
        for finding in findings:
            fingerprint = finding.fingerprint()
            entry = entries.setdefault(fingerprint, {
                "count": 0,
                "note": notes.get(fingerprint, "TODO: justify"),
                "path": finding.path,
                "code": finding.code,
                "message": finding.message,
            })
            entry["count"] += 1
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": _FORMAT_VERSION,
            "entries": [
                {
                    "fingerprint": fingerprint,
                    "count": entry["count"],
                    "path": entry["path"],
                    "code": entry["code"],
                    "message": entry["message"],
                    "note": entry["note"],
                }
                for fingerprint, entry in sorted(self.entries.items(),
                                                 key=_entry_order)
            ],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=False)
                        + "\n", encoding="utf-8")

    def partition(self, findings: List[Finding]
                  ) -> Tuple[List[Finding], List[Finding]]:
        """Split findings into (new, baselined).

        The first ``count`` occurrences of each baselined fingerprint
        (in file order) are absorbed; any surplus is new.
        """
        remaining = {
            fingerprint: entry["count"]
            for fingerprint, entry in self.entries.items()
        }
        new: List[Finding] = []
        absorbed: List[Finding] = []
        for finding in findings:
            fingerprint = finding.fingerprint()
            if remaining.get(fingerprint, 0) > 0:
                remaining[fingerprint] -= 1
                absorbed.append(finding)
            else:
                new.append(finding)
        return new, absorbed


def _entry_order(item: Tuple[str, dict]) -> Tuple[str, str, str]:
    _, entry = item
    return (entry["path"], entry["code"], entry["message"])
