"""``repro serve``: the fault-tolerant asyncio sweep job server.

One :class:`SweepService` instance owns a warm shared
:class:`ResultCache`, a crash-isolated :class:`ExperimentRunner`, and
the robustness layer around them:

* **Backpressure** -- a bounded :class:`AdmissionQueue`; a submission
  past capacity gets ``429`` with a ``Retry-After`` header, never a
  buffer (sustained over-admission costs O(1) memory per attempt).
* **Retries** -- the runner retries crashed/timed-out workers with
  seeded decorrelated-jitter backoff; a plan that exhausts its retries
  lands in the job's :class:`SweepReport` failure manifest and the
  job ends FAILED.
* **Circuit breaker** -- a crash-rate window trips the service into
  cache-only (read-through) mode instead of dying; a half-open probe
  recovers it without a restart.
* **Idempotent, resumable jobs** -- job ids are digests of the plan
  cache keys; records persist next to the cache, so a restarted
  server (or a reconnecting client resubmitting the same batch) picks
  up exactly where it left off, re-executing only uncached plans.
* **Chaos hooks** -- a :class:`ServiceFaultSpec` lets tests and the CI
  smoke job kill workers, stall the dispatcher and drop connections
  deterministically.

The HTTP surface is deliberately tiny (stdlib-only HTTP/1.1, one
request per connection, ``Connection: close``)::

    POST   /jobs               submit a plan batch  -> 202 / 200 / 429
    GET    /jobs               list known jobs
    GET    /jobs/<id>          job status + summary + manifest
    GET    /jobs/<id>/report   full SweepReport JSON (when finished)
    GET    /jobs/<id>/stream   JSONL status stream until terminal
    DELETE /jobs/<id>          cancel (queued: immediate; running:
                               cooperative via the sweep cancel event)
    GET    /healthz            liveness (always 200 while the loop runs)
    GET    /readyz             readiness (503 when saturated/breaker open)
    GET    /metrics            telemetry counters/gauges snapshot
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.models import MODEL_NAMES, is_design_point, parse_design_point
from ..harness.runner import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    RunFailure,
    SweepReport,
    SweepSummary,
)
from ..telemetry import EventKind, RingBufferSink, Telemetry, make_event
from ..workloads.spec2k import BENCHMARK_NAMES
from .breaker import BreakerState, CircuitBreaker
from .chaos import ChaosInjector, arm_job
from .faultspec import NULL_SERVICE_FAULTS, ServiceFaultSpec
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

#: Failure reasons the runner retries; the circuit breaker counts them
#: as worker crashes.
RETRYABLE_REASONS = ("crash", "timeout")

#: The keys a submission may carry.
SUBMISSION_KEYS = ("plans", "priority")

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
    """The job server: admission, dispatch, degradation, persistence."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_capacity: int = 16, workers: int = 2,
                 run_timeout: Optional[float] = 300.0,
                 max_retries: int = 2,
                 breaker: Optional[CircuitBreaker] = None,
                 faults: Union[ServiceFaultSpec, str,
                               None] = None,
                 telemetry: Optional[Telemetry] = None,
                 verbose: bool = False) -> None:
        if isinstance(faults, str):
            faults = ServiceFaultSpec.parse(faults)
        self.faults = faults if faults is not None else NULL_SERVICE_FAULTS
        self.host = host
        self._requested_port = port
        self.verbose = verbose
        self.telemetry = telemetry if telemetry is not None else Telemetry(
            enabled=True, sink=RingBufferSink())
        self.cache = ResultCache(cache_dir)
        self.runner = ExperimentRunner(
            cache=self.cache, verbose=verbose, workers=workers,
            run_timeout=run_timeout, max_retries=max_retries,
        )
        self.store = JobStore(self.cache.directory / "jobs")
        self.queue = AdmissionQueue(queue_capacity,
                                    telemetry=self.telemetry)
        if breaker is None:
            breaker = CircuitBreaker()
        breaker._on_transition = self._breaker_moved
        self.breaker = breaker
        self.chaos = ChaosInjector(self.cache.directory / "chaos")
        self._jobs: Dict[str, JobRecord] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        self._tick = 0
        self._conn_seq = 0
        self.dropped_conns = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False

    # -- telemetry -------------------------------------------------------

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def _emit(self, kind: EventKind, **attrs: object) -> None:
        if self.telemetry.enabled:
            self.telemetry.emit(*make_event(self._next_tick(), kind, attrs))

    def _breaker_moved(self, old: BreakerState, new: BreakerState,
                       crash_rate: float) -> None:
        if new is BreakerState.OPEN:
            self.telemetry.count("service.breaker_opens")
            self._emit(EventKind.BREAKER_OPEN,
                       crash_rate=round(crash_rate, 3),
                       previous=old.value)
        elif new is BreakerState.CLOSED:
            self._emit(EventKind.BREAKER_CLOSE, previous=old.value)

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
        if not self.faults.is_null:
            self.chaos.install()
        resumed = 0
        for record in self.store.resumable():
            record.state = QUEUED
            record.cancel_requested = False
            self._jobs[record.job_id] = record
            self.store.save(record)
            # Resumed jobs were admitted before the restart; they
            # bypass the capacity check rather than being dropped.
            self.queue.put(record.job_id, record.priority, force=True)
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
        self.chaos.uninstall()
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
        if self.faults.stall_dispatch:
            await asyncio.sleep(self.faults.stall_dispatch)
        if not self.breaker.allow_execution():
            self._finish_cache_only(record)
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
            None, self._run_job, record, cancel)
        self.queue.observe_service_time(time.perf_counter() - started)
        self._feed_breaker(report)
        self._finalize(record, report)

    def _run_job(self, record: JobRecord,
                 cancel: threading.Event) -> SweepReport:
        """Executor-thread body: chaos arming + the actual sweep."""
        if not self.faults.is_null and record.attempts == 1:
            # Chaos targets the first job attempt only; a job resumed
            # after a restart must be able to converge.
            arm_job(self.chaos.chaos_dir, self.faults, record.plans)
        return self.runner.run_many_report(record.plans, cancel=cancel)

    def _feed_breaker(self, report: SweepReport) -> None:
        # Crashes first: a crashing half-open probe must re-open the
        # breaker before its clean runs feed the window.
        crashes = [failure for failure in report.failures
                   if failure.reason in RETRYABLE_REASONS]
        for _ in crashes:
            self.breaker.record(True)
        for _ in range(report.summary.executed):
            self.breaker.record(False)
        if not crashes and not report.summary.executed:
            self.breaker.abstain()

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

    def _finish_cache_only(self, record: JobRecord) -> None:
        """Degraded read-through: serve cache hits, manifest the rest."""
        unique: List[ExperimentPlan] = list(dict.fromkeys(record.plans))
        results: Dict[ExperimentPlan, object] = {}
        failures = []
        for plan in unique:
            run = self.cache.load(plan)
            if run is not None:
                results[plan] = run
            else:
                failures.append(RunFailure(
                    plan=plan, reason="breaker-open",
                    detail="circuit breaker open: worker execution "
                           "disabled, serving cached results only",
                    attempts=0,
                ))
        summary = SweepSummary(
            requested=len(record.plans), unique=len(unique),
            executed=0, cache_hits=len(results),
            total_duration=0.0, max_duration=0.0,
            failed=len(failures),
        )
        report = SweepReport(results=results, failures=tuple(failures),
                             summary=summary)
        record.report = report.to_json()
        record.manifest = report.manifest()
        record.state = DONE if not failures else FAILED
        if failures:
            self.telemetry.count("service.jobs_degraded")
        self.store.save(record)
        self._log(f"job {record.job_id} served cache-only "
                  f"({len(results)} hit(s), {len(failures)} refused)")

    # -- admission -------------------------------------------------------

    def _normalize_plan(self, raw: object) -> ExperimentPlan:
        """A validated plan; its specs are canonical by construction,
        so every spelling of one plan maps to one job id."""
        plan = ExperimentPlan.from_dict(raw)
        if is_design_point(plan.model_name):
            # Explorer-minted design points validate structurally: the
            # parser enforces canonical spelling, a supported node and
            # sane wire counts.
            parse_design_point(plan.model_name)
        elif plan.model_name not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {plan.model_name!r}; expected one of "
                f"{', '.join(MODEL_NAMES)} or a 'dp@...' design point"
            )
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
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise HttpError(400, "'priority' must be an integer")
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
            self.queue.put(job_id, priority)
        except QueueFullError as exc:
            raise HttpError(
                429,
                f"admission queue full ({exc.depth}/{exc.capacity}); "
                f"retry in {exc.retry_after}s",
                headers=(("Retry-After", str(exc.retry_after)),),
            ) from None
        record = JobRecord(job_id=job_id, plans=plans,
                           priority=priority)
        self._jobs[job_id] = record
        self._cancel_events[job_id] = threading.Event()
        self.store.save(record)
        self.telemetry.count("service.jobs_admitted")
        self._emit(EventKind.JOB_ADMITTED, job_id=job_id,
                   plans=len(plans), priority=priority)
        self._log(f"admitted job {job_id} ({len(plans)} plan(s), "
                  f"priority {priority})")
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
            "breaker": self.breaker.state.value,
            "crash_rate": round(self.breaker.crash_rate(), 3),
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "jobs": len(self._jobs),
            "dropped_conns": self.dropped_conns,
        }

    def ready_json(self) -> Tuple[bool, Dict[str, object]]:
        reasons = []
        if self._closing:
            reasons.append("shutting down")
        if self.queue.depth >= self.queue.capacity:
            reasons.append("admission queue full")
        if self.breaker.state is BreakerState.OPEN:
            reasons.append("circuit breaker open (cache-only mode)")
        return not reasons, {"ready": not reasons, "reasons": reasons}

    # -- HTTP ------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conn_seq += 1
        conn_index = self._conn_seq
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
            if conn_index in self.faults.drop_conns:
                # Injected fault: vanish mid-request, no response.
                self.dropped_conns += 1
                self.telemetry.count("service.conns_dropped")
                return
            await self._respond(request, writer)
        except (ConnectionError, BrokenPipeError):
            # The client went away mid-response; nothing to salvage.
            pass
        # Robustness boundary: a bug in one request handler must
        # become a 500 for that client, never kill the accept loop.
        except Exception as exc:  # simlint: disable=SIM302
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
                if sub == "stream" and method == "GET":
                    await self._stream_job(record, writer)
                    return
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

    async def _stream_job(self, record: JobRecord,
                          writer: asyncio.StreamWriter) -> None:
        """JSONL status snapshots until the job is terminal.

        No Content-Length: the stream ends when the connection
        closes.  A client that disconnects mid-stream just ends the
        loop via the write failing -- the job itself is unaffected.
        """
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        while True:
            snapshot = json.dumps(record.public_json(),
                                  sort_keys=True).encode()
            writer.write(snapshot + b"\n")
            await writer.drain()
            if record.terminal or self._closing:
                return
            await asyncio.sleep(0.1)
            refreshed = self._jobs.get(record.job_id)
            if refreshed is not None:
                record = refreshed


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
