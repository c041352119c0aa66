"""SweepService end to end: real sockets, real worker processes."""

import socket
import time

import pytest

from repro.harness.runner import ExperimentPlan
from repro.service import Backpressure, ServiceError


def plan_for(benchmark, model="I", **overrides):
    kwargs = dict(instructions=300, warmup=80)
    kwargs.update(overrides)
    return ExperimentPlan(model, benchmark, **kwargs)


def post_model(client, name):
    """POST a gzip plan naming model ``name`` as raw JSON: a plan object
    refuses a model no run can build, so only a hand-written body
    reaches the server with one."""
    raw = dict(plan_for("gzip").to_dict(), model_name=name)
    return client._request("POST", "/jobs", {"plans": [raw]})


def submit_when_dispatched(client, plans, timeout=5.0, **kwargs):
    """Submit once the dispatcher has drained the previous job off the
    queue (capacity-1 tests would otherwise race admission)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.submit(plans, **kwargs)
        except Backpressure:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestSubmitAndComplete:
    def test_submit_runs_to_done(self, fake_execute, serve):
        live = serve()
        client = live.client()
        job = client.submit([plan_for("gzip"), plan_for("mesa")])
        assert job["state"] in ("queued", "running")
        final = client.wait(job["job_id"], timeout=20, poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 2
        assert final["summary"]["failed"] == 0
        assert final["manifest"] == ""

    def test_report_has_schema_and_results(self, fake_execute, serve):
        live = serve()
        client = live.client()
        job = client.submit([plan_for("gzip")])
        client.wait(job["job_id"], timeout=20, poll=0.05)
        report = client.report(job["job_id"])
        assert report["schema_version"] == 1
        assert len(report["results"]) == 1
        assert report["failures"] == []

    def test_resubmission_deduplicates(self, fake_execute, serve):
        live = serve()
        client = live.client()
        plans = [plan_for("gzip"), plan_for("mesa")]
        first = client.submit(plans)
        client.wait(first["job_id"], timeout=20, poll=0.05)
        again = client.submit(list(reversed(plans)))  # order-insensitive
        assert again["job_id"] == first["job_id"]
        assert again["state"] == "done"
        # The dedup answered from the finished job: nothing re-ran.
        assert again["summary"]["executed"] == 2

    def test_second_identical_batch_is_all_cache_hits(
            self, fake_execute, serve, tmp_path):
        """Restart-equivalent flow: a fresh service over the same
        cache serves a known batch without executing anything."""
        import shutil

        plans = [plan_for("gzip"), plan_for("mesa")]
        first = serve(cache_dir=tmp_path / "shared")
        done = first.client().submit(plans)
        first.client().wait(done["job_id"], timeout=20, poll=0.05)
        first.stop()

        # Forget the job records but keep the result cache: the next
        # service must rebuild the job from scratch yet execute nothing.
        shutil.rmtree(tmp_path / "shared" / "jobs")
        second = serve(cache_dir=tmp_path / "shared")
        job = second.client().submit(plans)
        final = second.client().wait(job["job_id"], timeout=20,
                                     poll=0.05)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 0
        assert final["summary"]["cache_hits"] == 2


class TestValidation:
    def test_unknown_model_is_400(self, fake_execute, serve):
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            post_model(client, "Z")
        assert excinfo.value.status == 400
        assert "unknown model" in excinfo.value.message

    def test_design_point_model_is_accepted(self, fake_execute, serve):
        client = serve().client()
        job = client.submit(
            [plan_for("gzip", model="dp@n32:B144+L36")]
        )
        assert job["state"] in ("queued", "running", "done")

    def test_malformed_design_point_is_400(self, fake_execute, serve):
        client = serve().client()
        for name in ("dp@n32:Q9", "dp@n45:B144+L36:cw2"):
            with pytest.raises(ServiceError) as excinfo:
                post_model(client, name)
            assert excinfo.value.status == 400

    def test_unsupported_node_design_point_is_400(self, fake_execute,
                                                  serve):
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            post_model(client, "dp@n90:B144")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("name", [
        "dp@n45:B3", "dp@n45:B0",
    ])
    def test_unbuildable_design_point_is_400(self, fake_execute, serve,
                                             name):
        """A link no run can build is refused at admission, not
        admitted to fail in a worker."""
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            post_model(client, name)
        assert excinfo.value.status == 400
        assert client.health()["jobs"] == 0

    def test_spec_spellings_share_one_job(self, fake_execute, serve):
        client = serve().client()
        plan = plan_for("gzip", model="X", fault_spec="ber=1e-06")
        first = client.submit([plan])
        respelled = dict(plan.to_dict(), fault_spec="ber=1e-6",
                         gating_policy="never", latency_scale=1)
        _status, decoded = client._request("POST", "/jobs",
                                           {"plans": [respelled]})
        assert decoded["job"]["job_id"] == first["job_id"]

    @pytest.mark.parametrize("field, text", [
        ("fault_spec", "kill=L@c0"),
        ("gating_policy", "idle:bogus=1"),
        ("policy_tag", "ablate"),
        ("policy_tag", "lwire_narrow=2"),
        ("num_clusters", 0),
        ("num_clusters", 5),
        ("num_clusters", 1),
        ("instructions", 0),
        ("warmup", -1),
        ("latency_scale", 0),
        ("latency_scale", -1.5),
        ("latency_scale", float("inf")),
        ("latency_scale", float("nan")),
    ])
    def test_malformed_spec_is_400(self, fake_execute, serve, field, text):
        client = serve().client()
        raw = dict(plan_for("gzip").to_dict(), **{field: text})
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"plans": [raw]})
        assert excinfo.value.status == 400
        assert f"bad {field}" in excinfo.value.message

    @pytest.mark.parametrize("key, value", [
        ("priorty", 9),       # a typo of the removed priority key
        ("priority", 0),      # admission is FIFO; there is no priority
        ("retry_budget", 1),  # an old client's job-level budget
    ])
    def test_unknown_submission_key_is_400(self, fake_execute, serve,
                                           key, value):
        live = serve()
        client = live.client()
        body = {"plans": [plan_for("gzip").to_dict()], key: value}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", body)
        assert excinfo.value.status == 400
        assert f"unknown submission key(s): {key}" in \
            excinfo.value.message
        assert client.health()["jobs"] == 0  # nothing was admitted

    def test_unknown_benchmark_is_400(self, fake_execute, serve):
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            client.submit([plan_for("not-a-benchmark")])
        assert excinfo.value.status == 400

    def test_malformed_body_is_400_not_a_crash(self, fake_execute,
                                               serve):
        live = serve()
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: 9\r\n\r\nnot json!")
            response = sock.recv(65536).decode()
        assert "400" in response.splitlines()[0]
        # The server survived: health still answers.
        assert live.client().health()["ok"] is True

    def test_unknown_job_is_404(self, fake_execute, serve):
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404_and_bad_method_405(self, fake_execute,
                                                     serve):
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/jobs/abc123/report")
        assert excinfo.value.status in (404, 405)

    def test_every_job_subroute_but_report_is_405(self, fake_execute,
                                                  serve):
        """A job has two GET views, itself and its report; there is no
        streaming route, so every response is one JSON body."""
        client = serve().client()
        job = client.submit([plan_for("gzip")])
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{job['job_id']}/stream")
        assert excinfo.value.status == 405

    def test_report_before_completion_is_409(self, faults, serve):
        faults.slow(0.5)
        live = serve()
        client = live.client()
        job = client.submit([plan_for("gzip")])
        with pytest.raises(ServiceError) as excinfo:
            client.report(job["job_id"])
        assert excinfo.value.status == 409

    def test_oversized_body_is_413(self, fake_execute, serve):
        live = serve()
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: 999999999\r\n\r\n")
            response = sock.recv(65536).decode()
        assert "413" in response.splitlines()[0]


class TestHealthAndMetrics:
    def test_healthz_always_answers(self, fake_execute, serve):
        health = serve().client().health()
        assert health == {"ok": True, "queue_depth": 0,
                          "queue_capacity": 16, "jobs": 0}

    def test_readyz_reflects_saturation(self, faults, serve):
        faults.slow(1.0)
        live = serve(queue_capacity=1)
        client = live.client()
        ready, _ = client.ready()
        assert ready
        client.submit([plan_for("gzip")])
        # Queued behind the slow first job; retried in case it has
        # not been dequeued yet.
        submit_when_dispatched(client, [plan_for("mesa")])
        ready, payload = client.ready()
        assert not ready
        assert "admission queue full" in payload["error"]

    def test_metrics_snapshot_counts_jobs(self, fake_execute, serve):
        live = serve()
        client = live.client()
        job = client.submit([plan_for("gzip")])
        client.wait(job["job_id"], timeout=20, poll=0.05)
        snapshot = client.metrics()
        assert snapshot["service.jobs_admitted"] == 1
        assert snapshot["service.jobs_completed"] == 1

    def test_handler_bug_is_a_500_and_the_server_keeps_serving(
            self, fake_execute, serve, monkeypatch):
        from repro.service import SweepService

        def broken(self):
            raise RuntimeError("planted handler bug")

        monkeypatch.setattr(SweepService, "health_json", broken)
        client = serve().client()
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 500
        assert "RuntimeError: planted handler bug" in str(excinfo.value)
        ready, _ = client.ready()
        assert ready
        job = client.submit([plan_for("gzip")])
        assert client.wait(job["job_id"], timeout=20,
                           poll=0.05)["state"] == "done"


class TestCancellation:
    def test_cancel_queued_job(self, faults, serve):
        faults.slow(1.0)
        live = serve()
        client = live.client()
        blocker = client.submit([plan_for("gzip")])
        victim = submit_when_dispatched(client, [plan_for("mesa")])
        cancelled = client.cancel(victim["job_id"])
        assert cancelled["state"] in ("cancelled", "queued")
        final = client.wait(victim["job_id"], timeout=20, poll=0.05)
        assert final["state"] == "cancelled"
        # The blocker is unaffected.
        assert client.wait(blocker["job_id"], timeout=20,
                           poll=0.05)["state"] == "done"

    def test_cancel_running_job_is_cooperative(self, fake_execute,
                                               serve, monkeypatch):
        """DELETE of a running job sets the sweep's cancel event; the
        worker is stopped and the job ends cancelled."""
        import repro.harness.runner as runner_mod

        def slow_execute(plan):
            time.sleep(30.0)
            return fake_execute(plan)

        monkeypatch.setattr(runner_mod, "_execute_plan", slow_execute)
        client = serve(run_timeout=60.0).client()
        job = client.submit([plan_for("gzip")])
        deadline = time.monotonic() + 10.0
        while (client.job(job["job_id"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert client.cancel(job["job_id"])["state"] == "running"
        final = client.wait(job["job_id"], timeout=20, poll=0.05)
        assert final["state"] == "cancelled"
        (failure,) = client.report(job["job_id"])["failures"]
        assert failure["reason"] == "cancelled"

    def test_cancel_terminal_job_is_idempotent(self, fake_execute,
                                               serve):
        client = serve().client()
        job = client.submit([plan_for("gzip")])
        client.wait(job["job_id"], timeout=20, poll=0.05)
        after = client.cancel(job["job_id"])
        assert after["state"] == "done"


class TestBackpressureHTTP:
    def test_429_carries_retry_after_header(self, faults, serve):
        faults.slow(2.0)
        live = serve(queue_capacity=1)
        client = live.client()
        client.submit([plan_for("gzip")])
        submit_when_dispatched(client, [plan_for("mesa")])
        with pytest.raises(Backpressure) as excinfo:
            client.submit([plan_for("art")])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
