"""``repro serve``: the fault-tolerant asyncio sweep job server.

One :class:`SweepService` instance owns a warm shared
:class:`ResultCache`, a crash-isolated :class:`ExperimentRunner`, and
the robustness layer around them:

* **Backpressure** -- a bounded :class:`AdmissionQueue`; a submission
  past capacity gets ``429`` with a ``Retry-After`` header, never a
  buffer (sustained over-admission costs O(1) memory per attempt).
* **Retries** -- the runner re-runs the plan of a crashed or timed-out
  worker at once; a plan that exhausts its retries lands in the job's
  :class:`SweepReport` failure manifest and the job ends FAILED.
* **Idempotent, resumable jobs** -- job ids are digests of the plan
  cache keys; records persist next to the cache, so a restarted
  server (or a reconnecting client resubmitting the same batch) picks
  up exactly where it left off, re-executing only uncached plans.

The HTTP surface is deliberately tiny (stdlib-only HTTP/1.1, one
request per connection, ``Connection: close``, every response one
JSON body with a ``Content-Length``)::

    POST   /jobs               submit a plan batch  -> 202 / 200 / 429
    GET    /jobs               list known jobs
    GET    /jobs/<id>          job status + summary + manifest
    GET    /jobs/<id>/report   full SweepReport JSON (when finished)
    DELETE /jobs/<id>          cancel (queued: immediate; running:
                               cooperative via the sweep cancel event)
    GET    /healthz            liveness (always 200 while the loop runs)
    GET    /readyz             readiness (503 when saturated or stopping)
    GET    /metrics            telemetry counters/gauges snapshot
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ..harness.runner import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    SweepReport,
)
from ..telemetry import Telemetry
from ..workloads.spec2k import BENCHMARK_NAMES
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
    job_id_for,
)
from .queue import AdmissionQueue, QueueFullError

#: Request bodies past this size are rejected (bounded memory).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The keys a submission may carry.
SUBMISSION_KEYS = ("plans",)

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server refuses; becomes a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: Sequence[Tuple[str, str]] = ()) -> None:
        super().__init__(message)
        self.status = status
        self.headers = tuple(headers)


def _encode_response(status: int, payload: object,
                     headers: Sequence[Tuple[str, str]] = ()) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Parse one HTTP/1.1 request; None on an empty connection."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw_length!r}"
                        ) from None
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} "
                             f"bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


class SweepService:
    """The job server: admission, dispatch, persistence."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_capacity: int = 16, workers: int = 2,
                 run_timeout: Optional[float] = 300.0,
                 max_retries: int = 2,
                 verbose: bool = False) -> None:
        self.host = host
        self._requested_port = port
        self.verbose = verbose
        # Counters and gauges only (served on /metrics); no events.
        self.telemetry = Telemetry()
        self.cache = ResultCache(cache_dir)
        self.runner = ExperimentRunner(
            cache=self.cache, verbose=verbose, workers=workers,
            run_timeout=run_timeout, max_retries=max_retries,
        )
        self.store = JobStore(self.cache.directory / "jobs")
        self.queue = AdmissionQueue(queue_capacity,
                                    telemetry=self.telemetry)
        self._jobs: Dict[str, JobRecord] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False

    # -- logging ---------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve] {message}", flush=True)

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the ephemeral pick)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> None:
        """Bind, resume persisted jobs, start the dispatcher."""
        self._stop_event = asyncio.Event()
        resumed = 0
        for record in self.store.resumable():
            record.state = QUEUED
            record.cancel_requested = False
            self._jobs[record.job_id] = record
            self.store.save(record)
            # Resumed jobs were admitted before the restart; they
            # bypass the capacity check rather than being dropped.
            self.queue.put(record.job_id, force=True)
            resumed += 1
        if resumed:
            self._log(f"resumed {resumed} persisted job(s)")
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self._requested_port)
        self._log(f"listening on {self.host}:{self.port}")

    async def stop(self) -> None:
        """Graceful shutdown: interrupt, persist, unbind.

        The running job's sweep is cancelled cooperatively and its
        record goes back to QUEUED on disk, so the next start resumes
        it from cached results.
        """
        self._closing = True
        for event in self._cancel_events.values():
            event.set()
        if self._stop_event is not None:
            self._stop_event.set()
        if self._dispatcher is not None:
            # Waits for the in-flight job to unwind (the cancel event
            # makes that prompt) so its interruption record is saved.
            await self._dispatcher
            self._dispatcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._log("stopped")

    # -- dispatcher ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._closing:
            job_id = await self._next_job()
            if job_id is None:
                break
            await self._run_one(job_id)

    async def _next_job(self) -> Optional[str]:
        """The next queued job id, or None once shutdown begins."""
        get_task = asyncio.ensure_future(self.queue.get())
        stop_task = asyncio.ensure_future(self._stop_event.wait())
        try:
            await asyncio.wait({get_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (get_task, stop_task):
                task.cancel()
            await asyncio.gather(get_task, stop_task,
                                 return_exceptions=True)
        if get_task.cancelled() or get_task.exception() is not None:
            return None
        job_id = get_task.result()
        if self._closing:
            # Leave the persisted record QUEUED: the restart resumes it.
            return None
        return job_id

    def _record_for(self, job_id: str) -> Optional[JobRecord]:
        record = self._jobs.get(job_id)
        if record is None:
            record = self.store.load(job_id)
            if record is not None:
                self._jobs[job_id] = record
        return record

    async def _run_one(self, job_id: str) -> None:
        if self._closing:
            return
        record = self._record_for(job_id)
        if record is None:
            return
        if record.cancel_requested:
            record.state = CANCELLED
            self.store.save(record)
            self.telemetry.count("service.jobs_cancelled")
            return
        record.state = RUNNING
        record.attempts += 1
        self.store.save(record)
        self._log(f"job {record.job_id} attempt {record.attempts}: "
                  f"{len(record.plans)} plan(s)")
        cancel = self._cancel_events.setdefault(job_id,
                                               threading.Event())
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        report = await loop.run_in_executor(
            None, self.runner.run_many_report, record.plans, cancel)
        self.queue.observe_service_time(time.perf_counter() - started)
        self._finalize(record, report)

    def _finalize(self, record: JobRecord, report: SweepReport) -> None:
        record.report = report.to_json()
        record.manifest = report.manifest()
        cancelled = any(f.reason == "cancelled" for f in report.failures)
        if cancelled and record.cancel_requested:
            record.state = CANCELLED
            self.telemetry.count("service.jobs_cancelled")
        elif cancelled:
            # Shutdown interruption, not a client cancel: persist as
            # QUEUED so the next start resumes from cached results.
            record.state = QUEUED
        elif report.failures:
            record.state = FAILED
            self.telemetry.count("service.jobs_failed")
        else:
            record.state = DONE
            self.telemetry.count("service.jobs_completed")
        self.store.save(record)
        self._log(f"job {record.job_id} -> {record.state}"
                  + (f" ({record.manifest.splitlines()[0]})"
                     if record.manifest else ""))

    # -- admission -------------------------------------------------------

    def _normalize_plan(self, raw: object) -> ExperimentPlan:
        """A validated plan; its specs are canonical by construction,
        so every spelling of one plan maps to one job id."""
        plan = ExperimentPlan.from_dict(raw)
        if plan.benchmark not in BENCHMARK_NAMES:
            raise ValueError(f"unknown benchmark {plan.benchmark!r}")
        return plan

    def _admit(self, payload: object
               ) -> Tuple[int, object, Tuple[Tuple[str, str], ...]]:
        if not isinstance(payload, dict):
            raise HttpError(400, "submission must be a JSON object")
        unknown = sorted(str(key) for key in payload
                         if key not in SUBMISSION_KEYS)
        if unknown:
            raise HttpError(400, f"unknown submission key(s): "
                                 f"{', '.join(unknown)} (expected "
                                 f"{', '.join(SUBMISSION_KEYS)})")
        raw_plans = payload.get("plans")
        if not isinstance(raw_plans, list) or not raw_plans:
            raise HttpError(400, "submission needs a non-empty "
                                 "'plans' list")
        try:
            plans = tuple(self._normalize_plan(raw) for raw in raw_plans)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None

        job_id = job_id_for(plans)
        existing = self._record_for(job_id)
        if existing is not None and existing.state in (QUEUED, RUNNING,
                                                       DONE):
            # Idempotent resubmission: address the in-flight or
            # completed job.  FAILED/CANCELLED records are re-admitted
            # fresh (their cached results still short-circuit).
            status = 200 if existing.state == DONE else 202
            return status, {"job": existing.public_json(),
                            "deduplicated": True}, ()

        try:
            self.queue.put(job_id)
        except QueueFullError as exc:
            raise HttpError(
                429,
                f"admission queue full ({exc.depth}/{exc.capacity}); "
                f"retry in {exc.retry_after}s",
                headers=(("Retry-After", str(exc.retry_after)),),
            ) from None
        record = JobRecord(job_id=job_id, plans=plans)
        self._jobs[job_id] = record
        self._cancel_events[job_id] = threading.Event()
        self.store.save(record)
        self.telemetry.count("service.jobs_admitted")
        self._log(f"admitted job {job_id} ({len(plans)} plan(s))")
        return 202, {"job": record.public_json()}, ()

    def _cancel(self, record: JobRecord
                ) -> Tuple[int, object, Tuple[Tuple[str, str], ...]]:
        if record.terminal:
            return 200, {"job": record.public_json(),
                         "already_terminal": True}, ()
        record.cancel_requested = True
        if record.state == QUEUED and self.queue.remove(record.job_id):
            record.state = CANCELLED
            self.telemetry.count("service.jobs_cancelled")
            self.store.save(record)
        else:
            event = self._cancel_events.setdefault(record.job_id,
                                                   threading.Event())
            event.set()
            self.store.save(record)
        return 202, {"job": record.public_json()}, ()

    # -- readiness and introspection -------------------------------------

    def health_json(self) -> Dict[str, object]:
        return {
            "ok": True,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "jobs": len(self._jobs),
        }

    def ready_json(self) -> Tuple[bool, Dict[str, object]]:
        reasons = []
        if self._closing:
            reasons.append("shutting down")
        if self.queue.depth >= self.queue.capacity:
            reasons.append("admission queue full")
        return not reasons, {"ready": not reasons, "reasons": reasons}

    # -- HTTP ------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(_read_request(reader),
                                                 timeout=10.0)
            except HttpError as exc:
                writer.write(_encode_response(
                    exc.status, {"error": str(exc)}, exc.headers))
                await writer.drain()
                return
            except (asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError):
                return
            if request is None:
                return
            await self._respond(request, writer)
        except (ConnectionError, BrokenPipeError):
            # The client went away mid-response; nothing to salvage.
            pass
        # Robustness boundary: a bug in one request handler must
        # become a 500 for that client, never kill the accept loop.
        except Exception as exc:
            try:
                writer.write(_encode_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
            except (ConnectionError, BrokenPipeError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _respond(self, request: Tuple[str, str, Dict[str, str],
                                            bytes],
                       writer: asyncio.StreamWriter) -> None:
        method, target, _headers, body = request
        path = target.split("?", 1)[0]
        try:
            if path == "/jobs" and method == "POST":
                try:
                    payload = json.loads(body.decode() or "null")
                except (json.JSONDecodeError, UnicodeDecodeError):
                    raise HttpError(400, "request body is not valid "
                                         "JSON") from None
                status, response, headers = self._admit(payload)
            elif path == "/jobs" and method == "GET":
                jobs = [self._jobs[job_id].public_json()
                        for job_id in sorted(self._jobs)]
                status, response, headers = 200, {"jobs": jobs}, ()
            elif path.startswith("/jobs/"):
                rest = path[len("/jobs/"):]
                job_id, _, sub = rest.partition("/")
                record = self._record_for(job_id)
                if record is None:
                    raise HttpError(404, f"no such job {job_id!r}")
                if sub == "report" and method == "GET":
                    if record.report is None:
                        raise HttpError(
                            409, f"job {job_id} has no report yet "
                                 f"(state: {record.state})")
                    status, response, headers = 200, record.report, ()
                elif sub == "" and method == "GET":
                    status, response, headers = (
                        200, {"job": record.public_json()}, ())
                elif sub == "" and method == "DELETE":
                    status, response, headers = self._cancel(record)
                else:
                    raise HttpError(405, f"unsupported {method} on "
                                         f"{path}")
            elif path == "/healthz" and method == "GET":
                status, response, headers = 200, self.health_json(), ()
            elif path == "/readyz" and method == "GET":
                ready, payload = self.ready_json()
                status = 200 if ready else 503
                response, headers = payload, ()
            elif path == "/metrics" and method == "GET":
                status, response, headers = (
                    200, self.telemetry.metrics.snapshot(), ())
            else:
                raise HttpError(404, f"no route for {method} {path}")
        except HttpError as exc:
            status = exc.status
            response = {"error": str(exc)}
            headers = exc.headers
        writer.write(_encode_response(status, response, headers))
        await writer.drain()


def run_service(service: SweepService) -> None:
    """Blocking convenience runner for the ``repro serve`` CLI."""

    async def _main() -> None:
        await service.start()
        stopper = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            import signal

            loop.add_signal_handler(signal.SIGINT, stopper.set)
            loop.add_signal_handler(signal.SIGTERM, stopper.set)
        except (NotImplementedError, OSError):
            pass
        try:
            await stopper.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
