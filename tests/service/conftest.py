"""Fixtures for the sweep-service suite.

The heavy pieces are shared here: a scriptable instant simulator (so
jobs finish in milliseconds), worker faults armed per plan on top of
it, :class:`ServiceThread`, which runs a real :class:`SweepService` --
real sockets, real worker processes -- on a background event loop with
deterministic startup/shutdown, and the loop guard, which fails any
test in which a blocking call runs on a thread that has a running
event loop.
"""

import asyncio
import functools
import importlib
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness.runner import ExperimentRunner
from repro.service import ServiceClient, SweepService
from repro.service.jobs import JobStore

# -- the loop guard ----------------------------------------------------------

#: Callables that block the calling thread.
DOTTED_SINKS = (
    "time.sleep",
    "open", "io.open",
    "os.fdopen", "os.open", "os.replace", "os.rename", "os.remove",
    "os.unlink", "os.makedirs", "os.listdir", "os.scandir",
    "shutil.copy", "shutil.copyfile", "shutil.copytree",
    "shutil.rmtree", "shutil.move",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
)

#: Sync file I/O on ``pathlib.Path`` (``Path.open`` goes through
#: ``io.open``, patched above).
METHOD_SINKS = (
    "read_text", "write_text", "read_bytes", "write_bytes",
    "mkdir", "rmdir", "touch", "unlink",
)

#: Sweep fan-out: minutes of work that belong behind run_in_executor.
FANOUT_SINKS = ("run_many", "run_many_report")

#: The loop's accepted blocking I/O, matched by code object so a frame
#: anywhere below one of these functions is covered.
ACCEPTED = {
    # Job records are tiny JSON files written atomically (tmp +
    # os.replace) at state transitions -- admission, dispatch,
    # finish, cancel, and the startup requeue before the listener
    # opens -- so a crash never loses an accepted job.  Admission in
    # particular must persist before the client sees "accepted".
    # The sub-ms write is accepted loop latency.
    JobStore.save.__code__: "JobStore.save",
    # Status queries and dispatch read one tiny job-record JSON; same
    # crash-consistent store design as save().
    JobStore.load.__code__: "JobStore.load",
    # The startup resume scan runs before the service accepts
    # connections: nothing is waiting on the loop yet, and doing it
    # synchronously keeps the resume/accept ordering trivially correct.
    JobStore.scan.__code__: "JobStore.scan",
}


@dataclass(frozen=True)
class LoopCall:
    """One blocking call made on a thread with a running loop."""

    sink: str
    #: ``module.function:line`` of every ``repro`` frame, innermost first.
    frames: Tuple[str, ...]
    #: The ACCEPTED entry covering the call, or "" for a violation.
    accepted_by: str


class LoopGuard:
    """Records blocking calls made while an event loop runs."""

    def __init__(self) -> None:
        self.accepted: List[LoopCall] = []
        self.violations: List[LoopCall] = []

    def wrap(self, sink: str, real):
        @functools.wraps(real)
        def guarded(*args, **kwargs):
            self.check(sink, sys._getframe(1))
            return real(*args, **kwargs)

        return guarded

    def check(self, sink: str, frame) -> None:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return
        frames: List[str] = []
        accepted_by = ""
        while frame is not None:
            accepted_by = accepted_by or ACCEPTED.get(frame.f_code, "")
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                frames.append(f"{module}.{frame.f_code.co_name}"
                              f":{frame.f_lineno}")
            frame = frame.f_back
        call = LoopCall(sink, tuple(frames), accepted_by)
        (self.accepted if accepted_by else self.violations).append(call)

    def install(self, patcher: pytest.MonkeyPatch) -> None:
        for dotted in DOTTED_SINKS:
            owner, _, name = dotted.rpartition(".")
            target = importlib.import_module(owner or "builtins")
            patcher.setattr(target, name, self.wrap(
                dotted, getattr(target, name)))
        for name in METHOD_SINKS:
            patcher.setattr(pathlib.Path, name, self.wrap(
                f"Path.{name}", getattr(pathlib.Path, name)))
        for name in FANOUT_SINKS:
            patcher.setattr(ExperimentRunner, name, self.wrap(
                f"ExperimentRunner.{name}",
                getattr(ExperimentRunner, name)))


@pytest.fixture(autouse=True)
def loop_guard():
    """Fail the test if a blocking sink ran on an event loop's thread.

    Uses its own MonkeyPatch, so a test's ``monkeypatch.undo()`` cannot
    strip it; autouse fixtures set up first and tear down last, so the
    services a test booted have stopped before the check.
    """
    guard = LoopGuard()
    patcher = pytest.MonkeyPatch()
    guard.install(patcher)
    try:
        yield guard
    finally:
        patcher.undo()
    if guard.violations:
        pytest.fail("blocking call(s) on the event loop:\n" + "\n".join(
            f"  {call.sink} via {' <- '.join(call.frames) or '?'}"
            for call in guard.violations), pytrace=False)


@pytest.fixture
def fake_execute(monkeypatch):
    """Replace the simulator with an instant stand-in."""

    def execute(plan):
        run = BenchmarkRun(
            benchmark=plan.benchmark, instructions=plan.instructions,
            cycles=plan.instructions * 2, interconnect_dynamic=1.0,
            interconnect_leakage=1.0,
        )
        return run, 0.01

    monkeypatch.setattr("repro.harness.runner._execute_plan", execute)
    return execute


class WorkerFaults:
    """Faults armed per plan, fired inside the worker that runs it.

    ``kill(*plans)`` and ``wedge(*plans)`` fire on a plan's first
    attempt only, ``fail(*plans)`` on every attempt; ``slow(seconds)``
    delays every plan.  An armed plan has a marker file named by its
    cache key (files reach every forked worker), and a worker claims a
    kill or wedge marker with ``os.rename``, so exactly one attempt of
    one worker fires it and the retry runs clean.
    """

    def __init__(self, directory: pathlib.Path, execute) -> None:
        directory.mkdir()
        self.directory = directory
        self._execute = execute
        self.delay = 0.0

    def _arm(self, mode: str, *plans) -> None:
        for plan in plans:
            (self.directory / f"{plan.cache_key()}.{mode}").touch()

    kill = functools.partialmethod(_arm, "kill")
    wedge = functools.partialmethod(_arm, "wedge")
    fail = functools.partialmethod(_arm, "fail")

    def slow(self, seconds: float) -> None:
        self.delay = seconds

    def execute(self, plan):
        key = plan.cache_key()
        if (self.directory / f"{key}.fail").exists():
            raise RuntimeError(f"injected failure of {plan.describe()}")
        for mode in ("kill", "wedge"):
            try:
                os.rename(self.directory / f"{key}.{mode}",
                          self.directory / f"{key}.{mode}.done")
            except OSError:
                continue
            if mode == "kill":
                os._exit(3)  # a real crash: no exception, no report
            time.sleep(3600)  # wedged past any run timeout
        time.sleep(self.delay)
        return self._execute(plan)


@pytest.fixture
def faults(fake_execute, monkeypatch, tmp_path):
    """:class:`WorkerFaults` on the instant simulator; arm, then submit."""
    armed = WorkerFaults(tmp_path / "faults", fake_execute)
    monkeypatch.setattr("repro.harness.runner._execute_plan",
                        armed.execute)
    return armed


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
