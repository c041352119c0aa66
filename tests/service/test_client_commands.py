"""``repro submit`` and ``repro status`` against a live server."""

import re
import socket

from repro.__main__ import main
from repro.harness.runner import ExperimentPlan

WINDOW = ["--instructions", "300", "--warmup", "80"]


def cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def free_port():
    """A port nothing listens on (bound, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestStatus:
    def test_health_line_and_job_list(self, fake_execute, serve, capsys):
        port = str(serve().port)
        code, out, _ = cli(capsys, "submit", "--port", port,
                           "--benchmarks", "gzip", *WINDOW)
        assert code == 0
        job_id = re.match(r"job (\w+): done", out).group(1)

        code, out, _ = cli(capsys, "status", "--port", port)
        assert code == 0
        health, *jobs = out.splitlines()
        assert health == (f"server 127.0.0.1:{port}: queue 0/16, "
                          f"1 job(s) known")
        assert [line.split() for line in jobs] == [
            [job_id, "done", "1", "plan(s)"]]

    def test_status_of_a_failed_job_exits_1(self, faults, serve, capsys):
        live = serve(max_retries=0)
        client = live.client()
        plan = ExperimentPlan("I", "gzip", instructions=300, warmup=80)
        faults.fail(plan)
        job = client.submit([plan])
        client.wait(job["job_id"], timeout=30, poll=0.05)

        code, out, _ = cli(capsys, "status", "--port", str(live.port),
                           job["job_id"])
        assert code == 1
        assert out.startswith(f"job {job['job_id']}: failed ")
        assert "injected failure" in out


class TestSubmitFailures:
    def test_wait_timeout_names_the_job_not_the_server(
            self, faults, serve, capsys):
        faults.slow(2.0)
        port = str(serve().port)
        code, _, err = cli(capsys, "submit", "--port", port,
                           "--benchmarks", "gzip", "--timeout", "0.2",
                           *WINDOW)
        assert code == 2
        assert "cannot reach" not in err
        assert re.search(r"job \w+ still (queued|running) after 0\.2s",
                         err), err

    def test_refused_connection_cannot_reach(self, capsys):
        port = str(free_port())
        code, _, err = cli(capsys, "submit", "--port", port,
                           "--benchmarks", "gzip", "--timeout", "0.2",
                           *WINDOW)
        assert code == 2
        assert f"cannot reach 127.0.0.1:{port}" in err
