"""Deterministic execution-fault injection for the sweep service.

The chaos tests need real worker crashes -- processes that die without
reporting -- at exact, reproducible points.  The mechanism is a *chaos
directory* next to the result cache:

* when the dispatcher starts a job under a non-null
  :class:`~repro.service.faultspec.ServiceFaultSpec`, it **arms** one
  marker file per targeted plan (``<cache_key>.kill`` / ``.wedge`` /
  ``.fail``);
* an execution wrapper installed around
  :func:`repro.harness.runner._execute_plan` checks for a marker
  before simulating.  ``kill``/``wedge`` markers are *claimed* with an
  atomic rename, so exactly the first attempt crashes or hangs and
  the retry succeeds; ``fail`` markers stay put, so every attempt
  raises (a deterministic simulator bug is not retryable).

Marker files (not in-memory state) make the injection survive the
fork into crash-isolated worker processes and keep concurrent workers
race-free: ``os.rename`` hands the fault to exactly one claimant.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Iterable, Optional, Tuple

from ..harness.runner import ExperimentPlan
from .faultspec import ServiceFaultSpec

#: How long a wedged worker sleeps; far beyond any sane run_timeout.
_WEDGE_SECONDS = 3600.0

_MODES: Tuple[str, ...] = ("kill", "wedge", "fail")


class ChaosFault(RuntimeError):
    """The injected deterministic failure of a ``fail-run`` plan."""


def arm_job(chaos_dir: Path, spec: ServiceFaultSpec,
            plans: Iterable[ExperimentPlan]) -> int:
    """Write marker files for one job's targeted plans.

    Indices in the spec are 1-based positions in ``plans``; indices
    past the end of the job are ignored (a 2-plan job under
    ``kill-run=5`` runs clean).  Returns the number of armed markers.
    """
    by_index = {}
    for mode, indices in (("kill", spec.kill_runs),
                          ("wedge", spec.wedge_runs),
                          ("fail", spec.fail_runs)):
        for index in indices:
            by_index[index] = mode
    armed = 0
    for position, plan in enumerate(plans, start=1):
        mode = by_index.get(position)
        if mode is None:
            continue
        chaos_dir.mkdir(parents=True, exist_ok=True)
        marker = chaos_dir / f"{plan.cache_key()}.{mode}"
        marker.write_text(plan.describe())
        armed += 1
    return armed


def disarm_all(chaos_dir: Path) -> None:
    """Remove every marker (armed or claimed); best effort."""
    try:
        entries = list(chaos_dir.iterdir())
    except OSError:
        return
    for entry in entries:
        try:
            entry.unlink()
        except OSError:
            pass


def _claim(chaos_dir: Path, plan: ExperimentPlan) -> Optional[str]:
    """The armed mode for ``plan``, claiming one-shot markers.

    ``kill``/``wedge`` markers are renamed to ``.done`` atomically so
    only the first claimant (across any number of forked workers)
    sees them.  ``fail`` markers persist: deterministic errors must
    reproduce on every attempt.
    """
    key = plan.cache_key()
    fail_marker = chaos_dir / f"{key}.fail"
    if fail_marker.exists():
        return "fail"
    for mode in ("kill", "wedge"):
        marker = chaos_dir / f"{key}.{mode}"
        try:
            os.rename(marker, chaos_dir / f"{key}.{mode}.done")
        except OSError:
            continue
        return mode
    return None


class ChaosInjector:
    """Wraps ``_execute_plan`` with marker-file fault injection.

    Install/uninstall are idempotent and re-entrant-safe for a single
    process (the wrapper chains to whatever was installed before it,
    so a monkeypatched stand-in simulator still runs under chaos).
    """

    def __init__(self, chaos_dir: Path) -> None:
        self.chaos_dir = Path(chaos_dir)
        self._original = None

    @property
    def installed(self) -> bool:
        return self._original is not None

    def install(self) -> None:
        if self._original is not None:
            return
        from ..harness import runner as runner_mod

        original = runner_mod._execute_plan
        chaos_dir = self.chaos_dir

        def chaotic_execute(plan):
            mode = _claim(chaos_dir, plan)
            if mode == "kill":
                # A real crash: no exception, no report, just death --
                # the parent must detect it via the worker exit code.
                os._exit(3)
            if mode == "wedge":
                time.sleep(_WEDGE_SECONDS)
            if mode == "fail":
                raise ChaosFault(
                    f"injected deterministic failure for "
                    f"{plan.describe()}"
                )
            return original(plan)

        self._original = original
        runner_mod._execute_plan = chaotic_execute

    def uninstall(self) -> None:
        if self._original is None:
            return
        from ..harness import runner as runner_mod

        runner_mod._execute_plan = self._original
        self._original = None
