"""Stdlib HTTP client for the sweep service (``repro submit``).

A thin, dependency-free wrapper over :mod:`http.client` that speaks
the service's JSON protocol and turns its failure modes into typed
exceptions:

* :class:`Backpressure` for 429 rejections, carrying the server's
  ``Retry-After`` hint so callers can honour it;
* :class:`ServiceError` for every other non-2xx response;
* :class:`JobTimeout` when :meth:`ServiceClient.wait` gives up on a
  job the server is still working on.

:meth:`ServiceClient.wait` polls a job to a terminal state, honouring
backpressure-free GETs, and :meth:`ServiceClient.submit_and_wait`
composes submission with honoured Retry-After retries -- the polite
client the service's bounded queue is designed for.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.runner import ExperimentPlan


class ServiceError(Exception):
    """A non-2xx response from the sweep service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class Backpressure(ServiceError):
    """The service's admission queue is full (HTTP 429).

    ``retry_after`` is the server's suggested wait in seconds.
    """

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class JobTimeout(TimeoutError):
    """:meth:`ServiceClient.wait` ran out of time; the server answered.

    A ``TimeoutError`` like a socket timeout, but raised only by the
    wait itself, so callers can tell a slow job from a dead server.
    """

    def __init__(self, job_id: str, state: str, timeout: float) -> None:
        super().__init__(f"job {job_id} still {state} after "
                         f"{timeout:g}s")
        self.job_id = job_id
        self.state = state


class ServiceClient:
    """One server endpoint; connections are per-request (the server
    closes after each response)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[object] = None) -> Tuple[int, object]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode()) if raw else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                decoded = {"error": raw.decode("latin-1", "replace")}
            if response.status == 429:
                retry_after = response.getheader("Retry-After", "1")
                try:
                    seconds = max(1, int(retry_after))
                except ValueError:
                    seconds = 1
                raise Backpressure(_error_text(decoded), seconds)
            if response.status >= 400:
                raise ServiceError(response.status, _error_text(decoded))
            return response.status, decoded
        finally:
            conn.close()

    # -- the service API -------------------------------------------------

    def submit(self, plans: Sequence[ExperimentPlan]) -> Dict[str, object]:
        """POST a plan batch; returns the job's public JSON.

        Raises :class:`Backpressure` when the admission queue is full.
        """
        payload = {"plans": [plan.to_dict() for plan in plans]}
        _status, decoded = self._request("POST", "/jobs", payload)
        return decoded["job"]

    def job(self, job_id: str) -> Dict[str, object]:
        _status, decoded = self._request("GET", f"/jobs/{job_id}")
        return decoded["job"]

    def jobs(self) -> List[Dict[str, object]]:
        _status, decoded = self._request("GET", "/jobs")
        return decoded["jobs"]

    def report(self, job_id: str) -> Dict[str, object]:
        """The finished job's full SweepReport JSON (409 until then)."""
        _status, decoded = self._request("GET", f"/jobs/{job_id}/report")
        return decoded

    def cancel(self, job_id: str) -> Dict[str, object]:
        _status, decoded = self._request("DELETE", f"/jobs/{job_id}")
        return decoded["job"]

    def health(self) -> Dict[str, object]:
        _status, decoded = self._request("GET", "/healthz")
        return decoded

    def ready(self) -> Tuple[bool, Dict[str, object]]:
        try:
            _status, decoded = self._request("GET", "/readyz")
            return True, decoded
        except ServiceError as exc:
            if exc.status == 503:
                return False, {"error": exc.message}
            raise

    def metrics(self) -> Dict[str, object]:
        _status, decoded = self._request("GET", "/metrics")
        return decoded

    # -- composed flows --------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.2) -> Dict[str, object]:
        """Poll until the job is terminal; returns its public JSON."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise JobTimeout(job_id, job["state"], timeout)
            time.sleep(poll)

    def submit_and_wait(self, plans: Sequence[ExperimentPlan],
                        timeout: float = 300.0,
                        max_submit_attempts: int = 5
                        ) -> Dict[str, object]:
        """Submit with honoured Retry-After backoff, then wait.

        On 429, sleeps the server's suggested interval and resubmits,
        up to ``max_submit_attempts`` tries.
        """
        last: Optional[Backpressure] = None
        for _attempt in range(max_submit_attempts):
            try:
                job = self.submit(plans)
                break
            except Backpressure as exc:
                last = exc
                time.sleep(exc.retry_after)
        else:
            assert last is not None
            raise last
        return self.wait(job["job_id"], timeout=timeout)


def _error_text(decoded: object) -> str:
    if isinstance(decoded, dict) and isinstance(decoded.get("error"),
                                                str):
        return decoded["error"]
    return str(decoded)
