"""Chaos-path tests: worker faults armed per plan (``conftest.faults``).

The acceptance criteria of the robustness layer, asserted end to end
over real sockets and real (crash-isolated) worker processes:

* injected worker kills and wedges never corrupt the cache and never
  lose a job -- retries converge, manifests stay truthful;
* the admission queue stays bounded under saturation (429 +
  Retry-After, no per-rejection state);
* the circuit breaker trips to cache-only mode and recovers via a
  half-open probe *without a restart*;
* a client disconnecting mid-request or mid-stream harms nobody;
* a restarted server resumes persisted jobs, re-executing only
  uncached plans.
"""

import json
import socket
import time

import pytest

from repro.harness.runner import ExperimentPlan, ResultCache
from repro.service import (
    Backpressure,
    CircuitBreaker,
    JobStore,
    job_id_for,
)
from repro.service.jobs import QUEUED, RUNNING, JobRecord


def plan_for(benchmark, model="I", **overrides):
    kwargs = dict(instructions=300, warmup=80)
    kwargs.update(overrides)
    return ExperimentPlan(model, benchmark, **kwargs)


def assert_cache_intact(cache_dir, plans):
    """Every plan's cached result must reload and validate."""
    cache = ResultCache(cache_dir)
    for plan in plans:
        run = cache.load(plan)
        assert run is not None, f"cache missing/corrupt for {plan}"
        assert run.benchmark == plan.benchmark


class TestWorkerKill:
    def test_kill_mid_job_retries_to_clean_completion(
            self, faults, serve, tmp_path):
        """A kill crashes the first plan's first attempt; the runner's
        retry brings the job home with an empty manifest."""
        live = serve(max_retries=2)
        client = live.client()
        plans = [plan_for("gzip"), plan_for("mesa")]
        faults.kill(plans[0])
        job = client.submit(plans)
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["manifest"] == ""
        assert final["summary"]["executed"] == 2
        assert_cache_intact(tmp_path / "cache", plans)

    def test_kill_without_run_retries_fails_the_job(
            self, faults, serve, tmp_path):
        """With per-run retries off, the crash is final: the runner is
        the only place a plan is retried, so the job is not requeued."""
        live = serve(max_retries=0)
        client = live.client()
        plans = [plan_for("gzip"), plan_for("mesa")]
        faults.kill(plans[0])
        job = client.submit(plans)
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "failed"
        assert final["attempts"] == 1
        report = client.report(job["job_id"])
        (failure,) = report["failures"]
        assert failure["reason"] == "crash"
        # The plan that did not crash completed and is cached.
        assert len(report["results"]) == 1
        assert_cache_intact(tmp_path / "cache", plans[1:])
        assert "service.job_retries" not in client.metrics()

    def test_exhausted_budgets_land_in_the_manifest(
            self, faults, serve):
        """A failing plan raises on *every* attempt: a deterministic bug
        is never retried and the manifest names it."""
        live = serve(max_retries=1)
        client = live.client()
        plans = [plan_for("gzip"), plan_for("mesa")]
        faults.fail(plans[0])
        job = client.submit(plans)
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "failed"
        assert final["attempts"] == 1  # deterministic -> no retry
        assert "gzip" in final["manifest"]
        report = client.report(job["job_id"])
        (failure,) = report["failures"]
        assert failure["reason"] == "error"
        assert "injected failure" in failure["detail"]
        # The healthy plan still completed and is served.
        assert len(report["results"]) == 1

    def test_wedged_worker_is_timed_out_and_retried(
            self, faults, serve, tmp_path):
        live = serve(run_timeout=1.0, max_retries=1)
        client = live.client()
        plans = [plan_for("gzip")]
        faults.wedge(plans[0])
        job = client.submit(plans)
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert_cache_intact(tmp_path / "cache", plans)


class TestQueueSaturation:
    def test_saturation_is_rejected_and_bounded(self, faults, serve):
        """Past capacity the server answers 429 + Retry-After and
        keeps NO per-rejection state: job map, job store and queue
        depth stay flat no matter how hard a client hammers."""
        faults.slow(5.0)
        live = serve(queue_capacity=2)
        client = live.client()
        admitted = [client.submit([plan_for("gzip")])]
        deadline = time.monotonic() + 5.0
        benchmarks = iter(("mesa", "art", "bzip2"))
        while len(admitted) < 3 and time.monotonic() < deadline:
            try:
                admitted.append(
                    client.submit([plan_for(next(benchmarks))]))
            except Backpressure:
                time.sleep(0.05)
        assert len(admitted) == 3  # 1 dispatched + 2 queued

        jobs_before = live.service.store.directory
        stored_before = len(list(jobs_before.glob("*.json")))
        rejections = 0
        for n in range(50):
            with pytest.raises(Backpressure) as excinfo:
                client.submit([plan_for("gcc", seed=n)])
            assert excinfo.value.retry_after >= 1
            rejections += 1
        assert rejections == 50
        health = client.health()
        assert health["queue_depth"] <= 2
        assert health["jobs"] == 3  # no record created per rejection
        stored_after = len(list(jobs_before.glob("*.json")))
        assert stored_after == stored_before
        assert live.service.queue.rejected >= 50

    def test_rejected_client_honouring_retry_after_gets_in(
            self, faults, serve):
        faults.slow(0.3)
        live = serve(queue_capacity=1)
        client = live.client()
        client.submit([plan_for("gzip")])
        final = client.submit_and_wait([plan_for("mesa")],
                                       timeout=30,
                                       max_submit_attempts=10)
        assert final["state"] == "done"


class TestCircuitBreaker:
    def test_trips_to_cache_only_and_recovers_without_restart(
            self, faults, serve, tmp_path):
        breaker = CircuitBreaker(window=4, threshold=0.5,
                                 min_samples=2, cooldown=0.5)
        live = serve(max_retries=0, breaker=breaker)
        client = live.client()

        # Phase 1: both plans crash; the breaker trips OPEN.
        plans = [plan_for("gzip"), plan_for("mesa")]
        faults.kill(*plans)
        crashing = client.submit(plans)
        final = client.wait(crashing["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "failed"
        assert client.health()["breaker"] == "open"
        ready, _ = client.ready()
        assert not ready

        # Phase 2: degraded mode -- no workers launch; cache misses
        # land in the manifest as breaker-open, instantly.
        degraded = client.submit([plan_for("art")])
        final = client.wait(degraded["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "failed"
        assert final["attempts"] == 0  # nothing executed
        report = client.report(degraded["job_id"])
        (failure,) = report["failures"]
        assert failure["reason"] == "breaker-open"

        # Phase 3: after the cooldown a clean probe (its plan is not
        # armed) closes the breaker -- same process, no restart.
        time.sleep(0.6)
        probe = client.submit([plan_for("bzip2")])
        final = client.wait(probe["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert client.health()["breaker"] == "closed"
        assert live.service.breaker.transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        metrics = client.metrics()
        assert metrics["service.breaker_opens"] == 1

    def test_all_cache_hit_probe_does_not_wedge_the_breaker(
            self, fake_execute, serve, tmp_path):
        """A half-open probe that executes nothing hands the probe
        slot on: the next job with misses launches workers again."""
        clock = [0.0]
        breaker = CircuitBreaker(window=4, threshold=0.5,
                                 min_samples=2, cooldown=10.0,
                                 clock=lambda: clock[0])
        breaker.record(True)
        breaker.record(True)
        clock[0] = 11.0  # cooled down: the next job is the probe
        cache_dir = tmp_path / "cache"
        hit = plan_for("gzip")
        ResultCache(cache_dir).store(hit, *fake_execute(hit))
        live = serve(cache_dir=cache_dir, breaker=breaker)
        client = live.client()

        probe = client.submit([hit])
        final = client.wait(probe["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 0
        assert client.health()["breaker"] == "half-open"

        miss = client.submit([plan_for("mesa")])
        final = client.wait(miss["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 1
        assert client.health()["breaker"] == "closed"


class TestConnectionFaults:
    def test_client_disconnect_mid_stream_harms_nobody(
            self, faults, serve):
        faults.slow(0.5)
        live = serve()
        client = live.client()
        job = client.submit([plan_for("gzip")])
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=5) as sock:
            sock.sendall(f"GET /jobs/{job['job_id']}/stream "
                         f"HTTP/1.1\r\n\r\n".encode())
            sock.recv(256)  # read a little, then vanish mid-stream
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert client.health()["ok"] is True

    @pytest.mark.parametrize("sent", [
        b"",
        b"GET /heal",
        b"POST /jobs HTTP/1.1\r\nContent-Le",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"plans\"",
    ], ids=["no-bytes", "mid-request-line", "mid-headers", "mid-body"])
    def test_client_vanishing_mid_request_harms_nobody(
            self, fake_execute, serve, sent):
        """A client that closes its socket part-way through a request
        gets no response and costs the server nothing: the next
        client is answered and a job still runs to completion."""
        live = serve()
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=5) as sock:
            sock.sendall(sent)
        client = live.client()
        assert client.health()["ok"] is True
        job = client.submit([plan_for("gzip")])
        final = client.wait(job["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"


class TestRestartResume:
    def test_resumes_persisted_job_executing_only_misses(
            self, fake_execute, serve, tmp_path):
        """A QUEUED record left behind by a dead server is picked up
        on start; plans already in the cache are not re-executed."""
        cache_dir = tmp_path / "cache"
        plans = (plan_for("gzip"), plan_for("mesa"))
        ResultCache(cache_dir).store(plans[0], *fake_execute(plans[0]))
        record = JobRecord(job_id=job_id_for(plans), plans=plans,
                           state=QUEUED)
        JobStore(cache_dir / "jobs").save(record)

        live = serve(cache_dir=cache_dir)
        final = live.client().wait(record.job_id, timeout=30,
                                   poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["cache_hits"] == 1
        assert final["summary"]["executed"] == 1
        assert_cache_intact(cache_dir, plans)

    def test_record_with_a_retry_budget_key_resumes(
            self, fake_execute, serve, tmp_path):
        """Records written before the job-level retry went away carry
        a ``retry_budget`` key; they still load and resume to DONE."""
        cache_dir = tmp_path / "cache"
        plans = (plan_for("gzip"),)
        store = JobStore(cache_dir / "jobs")
        store.directory.mkdir(parents=True)
        job_id = job_id_for(plans)
        (store.directory / f"{job_id}.json").write_text(json.dumps({
            "schema_version": 1,
            "job_id": job_id,
            "plans": [plan.to_dict() for plan in plans],
            "priority": 0,
            "retry_budget": 1,
            "attempts": 0,
            "state": "queued",
            "report": None,
            "manifest": "",
            "cancel_requested": False,
        }))
        loaded = store.load(job_id)
        assert loaded is not None
        assert loaded.state == QUEUED
        assert loaded.plans == plans

        live = serve(cache_dir=cache_dir)
        final = live.client().wait(job_id, timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 1

    def test_running_records_resume_too(self, fake_execute, serve,
                                        tmp_path):
        """A record that died mid-RUNNING (no report written) must be
        re-queued, not stranded."""
        cache_dir = tmp_path / "cache"
        plans = (plan_for("art"),)
        record = JobRecord(job_id=job_id_for(plans), plans=plans,
                           state=RUNNING, attempts=1)
        JobStore(cache_dir / "jobs").save(record)

        live = serve(cache_dir=cache_dir)
        final = live.client().wait(record.job_id, timeout=30,
                                   poll=0.05)
        assert final["state"] == "done"

    def test_graceful_stop_persists_interrupted_job_as_queued(
            self, fake_execute, serve, tmp_path, monkeypatch):
        """Stopping the server mid-job parks the record as QUEUED on
        disk; a successor service finishes it from the cache."""
        import repro.harness.runner as runner_mod

        original = runner_mod._execute_plan

        def slow_execute(plan):
            time.sleep(3.0)
            return original(plan)

        monkeypatch.setattr(runner_mod, "_execute_plan", slow_execute)
        cache_dir = tmp_path / "cache"
        live = serve(cache_dir=cache_dir, run_timeout=30.0)
        client = live.client()
        job = client.submit([plan_for("gzip")])
        deadline = time.monotonic() + 5.0
        while (client.job(job["job_id"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.05)
        live.stop()

        stored = JobStore(cache_dir / "jobs").load(job["job_id"])
        assert stored is not None
        assert stored.state == QUEUED  # parked, not failed/cancelled

        monkeypatch.setattr(runner_mod, "_execute_plan", original)
        successor = serve(cache_dir=cache_dir)
        final = successor.client().wait(job["job_id"], timeout=30,
                                        poll=0.05)
        assert final["state"] == "done"
