"""Fixtures for the sweep-service suite.

The heavy pieces are shared here: a scriptable instant simulator (so
jobs finish in milliseconds) and :class:`ServiceThread`, which runs a
real :class:`SweepService` -- real sockets, real worker processes --
on a background event loop with deterministic startup/shutdown.
"""

import asyncio
import threading

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.runner import ExperimentPlan
from repro.service import ServiceClient, SweepService

WINDOW = dict(instructions=300, warmup=80)


def fake_run(plan):
    return BenchmarkRun(
        benchmark=plan.benchmark, instructions=plan.instructions,
        cycles=plan.instructions * 2, interconnect_dynamic=1.0,
        interconnect_leakage=1.0,
    )


def plan_for(benchmark, model="I", **overrides):
    kwargs = dict(WINDOW)
    kwargs.update(overrides)
    return ExperimentPlan(model, benchmark, **kwargs)


@pytest.fixture
def fake_execute(monkeypatch):
    """Replace the simulator with an instant stand-in.

    Installed *before* the service starts, so the chaos wrapper (if
    any) chains to this fake and marker-file faults still fire.
    """

    def execute(plan):
        return fake_run(plan), 0.01

    monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
    return execute


class ServiceThread:
    """A live service on a daemon thread; stop() is deterministic."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self._started = threading.Event()
        self._loop = None
        self._stopper = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        async def main():
            await self.service.start()
            self._loop = asyncio.get_running_loop()
            self._stopper = asyncio.Event()
            self._started.set()
            await self._stopper.wait()
            await self.service.stop()

        asyncio.run(main())

    def start(self) -> "ServiceThread":
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        return self

    def stop(self, timeout: float = 20.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stopper.set)
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "service failed to stop"

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, **kwargs) -> ServiceClient:
        kwargs.setdefault("timeout", 10.0)
        return ServiceClient(port=self.port, **kwargs)


@pytest.fixture
def serve(tmp_path):
    """Factory: boot a service (ephemeral port) and register cleanup.

    Usage: ``live = serve(queue_capacity=2, ...)``; returns the
    started :class:`ServiceThread`.  Every service gets its own cache
    directory under ``tmp_path`` unless one is passed explicitly.
    """
    threads = []

    def boot(**kwargs):
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("port", 0)
        kwargs.setdefault("run_timeout", 15.0)
        kwargs.setdefault("verbose", False)
        live = ServiceThread(SweepService(**kwargs)).start()
        threads.append(live)
        return live

    yield boot
    for live in threads:
        live.stop()
