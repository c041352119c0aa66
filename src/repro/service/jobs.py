"""Job model and persistent job store for the sweep service.

A *job* is one submitted batch of :class:`ExperimentPlan`s plus its
admission metadata.  Two properties carry the service's resumability
contract:

* **Idempotent identity** -- ``job_id`` is a digest of the sorted plan
  cache keys, so resubmitting the same batch (a reconnecting client,
  a retried HTTP POST) addresses the same job instead of duplicating
  work.
* **Durable state** -- every record is persisted as schema-versioned
  JSON under ``<cache_dir>/jobs/`` with the same atomic-rename
  discipline as the result cache.  A restarted server re-enqueues
  every non-terminal record; because completed plans already live in
  the shared :class:`ResultCache`, the resumed job re-executes only
  what is actually missing.  A record carries no retry state: failed
  plans are retried inside the runner, and ``attempts`` only counts
  how often the job was dispatched (a restart-resume is one more).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.runner import ExperimentPlan, write_json_atomic

#: Bump when the persisted job record format changes.
JOB_SCHEMA_VERSION = 2

# Job lifecycle states.  QUEUED and RUNNING are resumable; the rest
# are terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, CANCELLED)
RESUMABLE_STATES = (QUEUED, RUNNING)
ALL_STATES = TERMINAL_STATES + RESUMABLE_STATES


def job_id_for(plans: Sequence[ExperimentPlan]) -> str:
    """The content-addressed id of a batch: order-insensitive."""
    keys = sorted(plan.cache_key() for plan in plans)
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return digest[:20]


@dataclass
class JobRecord:
    """One submitted batch and everything the service knows about it."""

    job_id: str
    plans: Tuple[ExperimentPlan, ...]
    attempts: int = 0
    state: str = QUEUED
    #: Serialized :meth:`SweepReport.to_json`, set on completion.
    report: Optional[dict] = None
    #: Human-readable failure manifest ("" while clean/unfinished).
    manifest: str = ""
    #: True once a client explicitly cancelled (distinguishes client
    #: cancellation from a shutdown interruption, which must resume).
    cancel_requested: bool = field(default=False)

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("a job needs at least one plan")
        if self.state not in ALL_STATES:
            raise ValueError(f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json(self) -> Dict[str, object]:
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "job_id": self.job_id,
            "plans": [plan.to_dict() for plan in self.plans],
            "attempts": self.attempts,
            "state": self.state,
            "report": self.report,
            "manifest": self.manifest,
            "cancel_requested": self.cancel_requested,
        }

    @classmethod
    def from_json(cls, data: object) -> "JobRecord":
        if not isinstance(data, dict):
            raise ValueError("job record must be a JSON object")
        version = data.get("schema_version")
        if version != JOB_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported job record schema_version {version!r} "
                f"(this build reads version {JOB_SCHEMA_VERSION})"
            )
        raw_plans = data.get("plans")
        if not isinstance(raw_plans, list) or not raw_plans:
            raise ValueError("job record must carry a non-empty plan list")
        plans = tuple(ExperimentPlan.from_dict(raw) for raw in raw_plans)
        job_id = data.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ValueError("job record is missing its job_id")
        report = data.get("report")
        if report is not None and not isinstance(report, dict):
            raise ValueError("job record report must be an object or null")
        record = cls(
            job_id=job_id,
            plans=plans,
            attempts=_typed(data, "attempts", int, 0),
            state=_typed(data, "state", str, QUEUED),
            report=report,
            manifest=_typed(data, "manifest", str, ""),
            cancel_requested=_typed(data, "cancel_requested", bool,
                                    False),
        )
        if record.job_id != job_id_for(plans):
            raise ValueError(
                f"job record {job_id} does not match its plans "
                f"(expected {job_id_for(plans)}); refusing to resume a "
                f"tampered record"
            )
        return record

    def public_json(self) -> Dict[str, object]:
        """The client-facing view (GET /jobs/<id>)."""
        summary = None
        if self.report is not None:
            summary = self.report.get("summary")
        return {
            "job_id": self.job_id,
            "state": self.state,
            "plans": len(self.plans),
            "attempts": self.attempts,
            "summary": summary,
            "manifest": self.manifest,
        }


def _typed(data: Dict[str, object], key: str, kind: type,
           default: object) -> object:
    """``data[key]`` if it is exactly a ``kind`` (a bool is no int),
    ``default`` when absent; anything else is a corrupt record."""
    value = data.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"job record {key} must be {kind.__name__}, "
                         f"got {value!r}")
    return value


class JobStore:
    """Atomic JSON persistence for job records."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def _path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        write_json_atomic(self._path(record.job_id), record.to_json())

    def load(self, job_id: str) -> Optional[JobRecord]:
        """The stored record, or None for missing/unreadable ids.

        A corrupt record is treated as absent (the submission that
        recreates it is idempotent), never half-loaded.
        """
        try:
            text = self._path(job_id).read_text()
        except OSError:
            return None
        try:
            return JobRecord.from_json(json.loads(text))
        except (json.JSONDecodeError, ValueError):
            return None

    def scan(self) -> List[JobRecord]:
        """Every loadable record, ordered by job id (deterministic)."""
        try:
            paths = sorted(self.directory.glob("*.json"))
        except OSError:
            return []
        records = []
        for path in paths:
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        return records

    def resumable(self) -> List[JobRecord]:
        """Records a restarted server must pick back up."""
        return [record for record in self.scan()
                if record.state in RESUMABLE_STATES]
