"""Chaos-path tests: worker faults armed per plan (``conftest.faults``).

The acceptance criteria of the robustness layer, asserted end to end
over real sockets and real (crash-isolated) worker processes:

* injected worker kills and wedges never corrupt the cache and never
  lose a job -- retries converge, manifests stay truthful;
* a crash burst fails its own job and nothing else: the next job
  launches workers and the server stays ready;
* the admission queue stays bounded under saturation (429 +
  Retry-After, no per-rejection state);
* a client disconnecting mid-request harms nobody;
* a restarted server resumes persisted jobs, re-executing only
  uncached plans, and skips a corrupt record.
"""

import json
import socket
import time

import pytest

from repro.harness.runner import ExperimentPlan, ResultCache
from repro.service import Backpressure, JobStore, job_id_for
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


class TestCrashBurst:
    def test_crash_burst_fails_its_job_and_the_next_job_executes(
            self, faults, serve, tmp_path):
        """Every plan of a job crashes with no retries left: the job
        ends FAILED with one ``crash`` per plan, the server stays
        ready, the next job's clean plan runs in a worker, and a
        resubmission re-executes the plans that are not cached."""
        live = serve(max_retries=0)
        client = live.client()
        plans = [plan_for(name)
                 for name in ("gzip", "mesa", "art", "bzip2")]
        faults.kill(*plans)
        crashing = client.submit(plans)
        final = client.wait(crashing["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "failed"
        report = client.report(crashing["job_id"])
        assert [failure["reason"] for failure in report["failures"]] \
            == ["crash"] * 4
        assert report["results"] == []

        clean = client.submit([plan_for("gcc")])
        final = client.wait(clean["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 1
        ready, payload = client.ready()
        assert ready, payload

        again = client.submit(plans)  # the kills fired once; now clean
        final = client.wait(again["job_id"], timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 4
        assert_cache_intact(tmp_path / "cache", plans)


class TestConnectionFaults:
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

    def test_record_at_the_old_schema_version_is_absent(
            self, fake_execute, serve, tmp_path):
        """A record written before the priority went away is at schema
        version 1: it is treated as absent, the service starts without
        it, and resubmitting its plans runs them as a new job."""
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
        assert store.load(job_id) is None

        live = serve(cache_dir=cache_dir)
        client = live.client()
        assert client.health()["jobs"] == 0
        final = client.submit_and_wait(list(plans), timeout=30)
        assert final["job_id"] == job_id
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 1

    def test_mistyped_record_is_skipped_and_the_rest_resume(
            self, fake_execute, serve, tmp_path):
        """One record with a field of the wrong type is treated as
        absent; the service still starts and resumes its other QUEUED
        job."""
        cache_dir = tmp_path / "cache"
        store = JobStore(cache_dir / "jobs")
        good = JobRecord(job_id=job_id_for((plan_for("gzip"),)),
                         plans=(plan_for("gzip"),), state=QUEUED)
        store.save(good)
        bad_plans = (plan_for("mesa"),)
        bad = JobRecord(job_id=job_id_for(bad_plans), plans=bad_plans,
                        state=QUEUED).to_json()
        bad["attempts"] = None
        (store.directory / f"{bad['job_id']}.json").write_text(
            json.dumps(bad))

        live = serve(cache_dir=cache_dir)
        final = live.client().wait(good.job_id, timeout=30, poll=0.05)
        assert final["state"] == "done"
        assert live.client().health()["jobs"] == 1

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
