"""Sweep-as-a-service: the fault-tolerant async job server.

DESIGN.md section 12.  The package splits along failure-domain lines:

* :mod:`~repro.service.queue` -- bounded FIFO admission
  (backpressure, never unbounded memory);
* :mod:`~repro.service.jobs` -- idempotent job identity + durable
  store (restart resume);
* :mod:`~repro.service.server` -- the asyncio HTTP surface wiring
  them together;
* :mod:`~repro.service.client` -- the stdlib client
  (``repro submit`` / ``repro status``).
"""

from .client import Backpressure, JobTimeout, ServiceClient, ServiceError
from .jobs import (
    JOB_SCHEMA_VERSION,
    JobRecord,
    JobStore,
    job_id_for,
)
from .queue import AdmissionQueue, QueueFullError
from .server import MAX_BODY_BYTES, HttpError, SweepService, run_service

__all__ = [
    "AdmissionQueue",
    "Backpressure",
    "HttpError",
    "JOB_SCHEMA_VERSION",
    "JobRecord",
    "JobTimeout",
    "JobStore",
    "MAX_BODY_BYTES",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "job_id_for",
    "run_service",
]
