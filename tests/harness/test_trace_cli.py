"""CLI: ``repro trace``, ``--telemetry``/``--trace-out``, ``--version``."""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _version as version_module
from repro._version import package_version
from repro.__main__ import main
from repro.harness import ExperimentPlan, simulate_plan
from repro.telemetry import (
    RingBufferSink,
    Telemetry,
    trace_categories,
    validate_chrome_trace,
)

WINDOW = ["--instructions", "1500", "--warmup", "400"]
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _project_version() -> str:
    """``[project] version`` from the checkout's ``pyproject.toml``."""
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project]" and line.startswith("version"):
            return line.split("=", 1)[1].strip().strip('"')
    raise AssertionError("pyproject.toml has no [project] version")


class TestVersionFlags:
    def test_repro_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_version_matches_pyproject(self):
        version = package_version()
        assert version
        assert version != "0.0.0+unknown"

    def test_checkout_reads_pyproject_without_package_metadata(self):
        # A fresh interpreter: pytest itself imports importlib.metadata.
        script = ("import sys\n"
                  "from repro._version import package_version\n"
                  "print(package_version())\n"
                  "print('importlib.metadata' in sys.modules)\n")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        ).stdout.split()
        assert out == [_project_version(), "False"]

    def test_installed_wheel_asks_package_metadata(self, monkeypatch):
        monkeypatch.setattr(importlib.metadata, "version",
                            lambda name: "9.8.7")
        # A source tree's pyproject.toml wins over any metadata.
        assert package_version() == _project_version()
        monkeypatch.setattr(version_module, "_from_pyproject", lambda: "")
        assert package_version() == "9.8.7"

        def missing(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", missing)
        assert package_version() == "0.0.0+unknown"


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "dir" / "trace.json"
        code = main(["trace", "X", "--benchmark", "gzip", *WINDOW,
                     "--fault-spec", "kill=L@*@200",
                     "--out", str(out_path)])
        assert code == 0
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        categories = trace_categories(trace)
        for required in ("wire-selection", "overflow", "fault", "cache"):
            assert required in categories, f"missing category {required}"
        # Instant timestamps (cycles) must be monotonically ordered.
        stamps = [e["ts"] for e in trace["traceEvents"]
                  if e.get("ph") == "i"]
        assert stamps == sorted(stamps)
        out = capsys.readouterr().out
        assert "wire-selection decisions by reason:" in out
        assert "traffic by link and plane:" in out

    def test_trace_events_out_jsonl(self, tmp_path, capsys):
        """One sorted-key JSON object per buffered event, in order."""
        events_path = tmp_path / "missing" / "events.jsonl"
        code = main(["trace", "I", "--benchmark", "gzip", *WINDOW,
                     "--events-out", str(events_path)])
        assert code == 0
        telemetry = Telemetry(sink=RingBufferSink(capacity=None))
        simulate_plan(ExperimentPlan(model_name="I", benchmark="gzip",
                                     instructions=1500, warmup=400),
                      telemetry=telemetry)
        events = telemetry.events()
        assert events[0].kind.value == "run_start"
        assert events[-1].kind.value == "run_end"
        expected = "".join(json.dumps(event.to_json(), sort_keys=True)
                           + "\n" for event in events)
        assert events_path.read_bytes() == expected.encode("utf-8")

    def test_trace_summary_counts_power_and_steering_events(self, capsys):
        """Gate/wake and steering-penalty events are counted kind by
        kind, next to the fault events."""
        code = main(["trace", "X", "--benchmark", "gzip",
                     "--instructions", "2000", "--warmup", "500",
                     "--gating", "idle:drowsy=16,gate=64",
                     "--fault-spec", "kill=L@*@200"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "fault events: plane_kill=10" in lines
        assert "power events: plane_gated=618, plane_woken=538" in lines
        assert "steering events: steering_penalty=8" in lines

    def test_trace_metrics_flag(self, capsys):
        code = main(["trace", "I", "--benchmark", "gzip", *WINDOW,
                     "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "network.segments_routed" in out


class TestRunTelemetryFlags:
    def test_run_telemetry_prints_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        code = main(["run", "--model", "I", "--benchmark", "gzip",
                     *WINDOW, "--telemetry"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "profiler:" in out

    def test_run_trace_out_implies_telemetry(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        out_path = tmp_path / "run.json"
        code = main(["run", "--model", "I", "--benchmark", "gzip",
                     *WINDOW, "--trace-out", str(out_path)])
        assert code == 0
        assert validate_chrome_trace(json.loads(out_path.read_text())) == []

    def test_run_telemetry_matches_untraced_numbers(self, capsys,
                                                    monkeypatch):
        """--telemetry must not change the printed IPC line."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        main(["run", "--model", "I", "--benchmark", "gzip", *WINDOW])
        plain = capsys.readouterr().out
        main(["run", "--model", "I", "--benchmark", "gzip", *WINDOW,
              "--telemetry"])
        traced = capsys.readouterr().out
        ipc_plain = next(line for line in plain.splitlines()
                         if line.startswith("IPC"))
        ipc_traced = next(line for line in traced.splitlines()
                          if line.startswith("IPC"))
        assert ipc_plain == ipc_traced


class TestSweepTelemetry:
    def test_figure3_telemetry_writes_harness_trace(self, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        out_path = tmp_path / "harness.json"
        code = main(["figure3", "--benchmarks", "gzip",
                     "--instructions", "800", "--warmup", "200",
                     "--telemetry", "--trace-out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "profiler:" in out
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "sweep" in names
        assert "run.execute" in names
