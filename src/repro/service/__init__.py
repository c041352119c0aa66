"""Sweep-as-a-service: the fault-tolerant async job server.

DESIGN.md section 12.  The package splits along failure-domain lines:

* :mod:`~repro.service.queue` -- bounded priority admission
  (backpressure, never unbounded memory);
* :mod:`~repro.service.breaker` -- crash-rate circuit breaker
  (degrade to cache-only, recover via half-open probe);
* :mod:`~repro.service.jobs` -- idempotent job identity + durable
  store (restart resume);
* :mod:`~repro.service.server` -- the asyncio HTTP surface wiring
  them together;
* :mod:`~repro.service.client` -- the stdlib client
  (``repro submit`` / ``repro status``).
"""

from .breaker import BreakerState, CircuitBreaker
from .client import Backpressure, ServiceClient, ServiceError
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
    "BreakerState",
    "CircuitBreaker",
    "HttpError",
    "JOB_SCHEMA_VERSION",
    "JobRecord",
    "JobStore",
    "MAX_BODY_BYTES",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "job_id_for",
    "run_service",
]
