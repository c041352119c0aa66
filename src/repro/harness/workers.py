"""Long-lived, crash-isolated sweep worker processes.

:meth:`repro.harness.runner.ExperimentRunner.run_many_report` forks
these for one sweep and schedules cache misses onto them: this module
holds the child's loop (:func:`worker_loop`) and the parent's handle on
one child (:class:`Worker`).  The scheduling -- trace-key order,
timeouts, retries, replacement -- lives in the runner.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .profiling import HarnessProfiler

if TYPE_CHECKING:
    from .runner import ExperimentPlan


def worker_loop(conn, execute: Callable) -> None:
    """Body of one worker process: run plans until told to stop.

    Answers each plan it receives with ``("ok", run, duration)`` or
    ``("error", type, msg)`` until a ``None`` sentinel or a closed
    pipe; a worker that dies mid-plan (segfault, OOM-kill, SIGKILL) is
    detected by the parent via process exit.  ``execute`` is the
    runner's ``_execute_plan`` as it stood when the sweep began.

    Memory stays that of one run: the annotated-trace memo holds one
    trace key, and a full collection after every plan frees the
    processor's reference cycles.
    """
    gc.freeze()  # objects inherited from the parent are never garbage
    try:
        for plan in iter(conn.recv, None):
            try:
                run, duration = execute(plan)
                payload = ("ok", run, duration)
            # Crash-isolation boundary: this worker must convert *any*
            # failure (simulator bug, MemoryError, KeyboardInterrupt)
            # into a structured ("error", ...) message so one bad run
            # cannot kill the sweep; the parent decides retry-vs-manifest.
            except BaseException as exc:  # simlint: disable=SIM302
                payload = ("error", type(exc).__name__, str(exc))
            conn.send(payload)
            gc.collect()
    except EOFError:
        pass  # the parent is gone


class Worker:
    """The parent's handle on one :func:`worker_loop` process.

    Records one ``run.execute`` span per plan it ran and, when stopped,
    one ``worker`` span from launch to exit.
    """

    def __init__(self, execute: Callable, prof: HarnessProfiler) -> None:
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_loop, args=(child, execute))
        self.proc.start()
        child.close()
        self.prof = prof
        self.launched = prof.now()
        self.plans = 0
        #: The in-flight (plan, attempt, start in profiler µs), or None.
        self.job: Optional[Tuple[ExperimentPlan, int, float]] = None

    def start(self, plan: ExperimentPlan, attempt: int) -> None:
        self.job = (plan, attempt, self.prof.now())
        self.plans += 1
        try:
            self.conn.send(plan)
        except OSError:
            pass  # a dead worker surfaces as a crash when polled

    def poll(self, run_timeout: Optional[float]) -> Optional[tuple]:
        """The worker's news, or None: its ``("ok", ...)`` or
        ``("error", ...)`` answer, ``("crash",)`` when it died or closed
        its pipe without one, ``("timeout",)`` when its plan has run
        ``run_timeout`` seconds."""
        # Liveness is read before the pipe: a worker that sends and
        # exits between the two reads must not look like a crash, so
        # it is one only if it was already dead and its pipe is still
        # empty.
        alive = self.proc.is_alive()
        if self.conn.poll(0):
            try:
                return self.conn.recv()
            except EOFError:
                return ("crash",)
        if not alive:
            return ("crash",)
        if (self.job is not None and run_timeout is not None
                and self.prof.now() - self.job[2] >= run_timeout * 1e6):
            return ("timeout",)
        return None

    def end_job(self, outcome: str) -> Tuple[ExperimentPlan, int]:
        """Clear the in-flight job; returns its (plan, attempt)."""
        plan, attempt, start = self.job
        self.job = None
        self.prof.complete("run.execute", start, self.prof.now() - start,
                           category="run", plan=plan.describe(),
                           attempt=attempt + 1, outcome=outcome,
                           pid=self.proc.pid)
        return plan, attempt

    def stop(self, outcome: str) -> None:
        """End the process and record its span.

        An idle worker stopped with outcome ``"exit"`` gets the
        sentinel and 5 s to leave; any other is sent SIGTERM.
        """
        if outcome == "exit" and self.job is None:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.proc.join(5.0)
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self.conn.close()
        self.prof.complete("worker", self.launched,
                           self.prof.now() - self.launched,
                           category="worker", pid=self.proc.pid,
                           plans=self.plans, outcome=outcome)


def wait_any(workers: List[Worker], timeout: float) -> None:
    """Block until a worker has news or ``timeout`` seconds pass."""
    multiprocessing.connection.wait([w.conn for w in workers], timeout)
