"""Experiment runner with on-disk result caching and parallel sweeps.

Every (model, benchmark, machine, window, seed) run is cached as JSON
under ``.repro_cache/`` in the repository root (override with
``REPRO_CACHE_DIR``; set ``REPRO_NO_CACHE=1`` to disable).  The cache key
includes a schema version -- bump :data:`CACHE_VERSION` when simulator
changes invalidate old numbers.

Cache files are written atomically (temp file + ``os.replace``) so
concurrent writers -- e.g. several :meth:`ExperimentRunner.run_many`
workers, or two sweeps racing on the same directory -- can never leave a
partial JSON file behind.  Loads are schema-validated: corrupt, truncated
or wrong-version entries are quarantined under ``quarantine/`` and
treated as misses, never returned as data.  Each entry written by this
version carries a ``provenance`` block (cache version, the full plan,
wall-clock duration, simulator commit); entries from older versions of
this file lack it and are still accepted, since the cache key already
pins :data:`CACHE_VERSION`.

:meth:`ExperimentRunner.run_many` fans cache misses out over
*crash-isolated* worker processes that live for one sweep: each is
forked once and runs plan after plan, dispatched in trace-key order so
the runs of one (benchmark, seed) reuse one annotated trace.
Simulations are deterministic for a fixed plan (seeded workload
generation, no wall-clock coupling), so serial and parallel sweeps are
bit-identical; ``tests/harness/test_parallel.py`` enforces this.  A
worker that crashes or wedges past ``run_timeout`` is replaced, and
only its in-flight plan is retried with seeded decorrelated-jitter
backoff up to ``max_retries`` times; a plan that raises is not
retried.  Whatever still fails lands in a structured failure manifest
(:class:`SweepReport`) next to every completed result.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
import threading
import time
from collections import deque
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    get_type_hints,
)

from ..core.config import InterconnectConfig
from ..core.metrics import BenchmarkRun, ModelResult
from ..core.models import InterconnectModel, model
from ..core.simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
    simulate_benchmark,
)
from ..faults import FaultSpecError, canonical_faults
from ..interconnect.selection import PolicyFlags
from ..power import GatingSpecError, canonical_gating
from ..telemetry import Telemetry
from ..workloads.spec2k import BENCHMARK_NAMES
from .backoff import DecorrelatedJitter
from .profiling import NULL_PROFILER, HarnessProfiler
from .workers import Worker, wait_any

#: Bump when simulator changes invalidate cached results.
CACHE_VERSION = 7

#: Bump when the :meth:`SweepReport.to_json` wire format changes.
REPORT_SCHEMA_VERSION = 1

#: Required result fields and their acceptable JSON types.
_RESULT_SCHEMA: Dict[str, tuple] = {
    "benchmark": (str,),
    "instructions": (int,),
    "cycles": (int,),
    "interconnect_dynamic": (int, float),
    "interconnect_leakage": (int, float),
}


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything that determines a run's outcome.

    A plan canonicalizes itself at construction: ``fault_spec`` and
    ``gating_policy`` take their canonical spellings (``"never"``
    becomes ``""``) and ``latency_scale`` becomes a float, so plans
    that compare equal always share one cache key.  A malformed spec
    raises ``ValueError``.
    """

    model_name: str
    benchmark: str
    num_clusters: int = 4
    latency_scale: float = 1.0
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    seed: int = DEFAULT_SEED
    policy_tag: str = "default"
    #: Canonical fault-spec string ("" = healthy wires); see
    #: :meth:`repro.faults.FaultSpec.canonical`.
    fault_spec: str = ""
    #: Canonical gating-policy string ("" = always-on planes); see
    #: :meth:`repro.power.GatingPolicy.canonical`.
    gating_policy: str = ""

    def __post_init__(self) -> None:
        try:
            fault_spec = canonical_faults(self.fault_spec)
        except FaultSpecError as exc:
            raise ValueError(f"bad fault_spec: {exc}") from None
        try:
            gating_policy = canonical_gating(self.gating_policy)
        except GatingSpecError as exc:
            raise ValueError(f"bad gating_policy: {exc}") from None
        object.__setattr__(self, "fault_spec", fault_spec)
        object.__setattr__(self, "gating_policy", gating_policy)
        object.__setattr__(self, "latency_scale", float(self.latency_scale))

    def cache_key(self) -> str:
        payload = json.dumps(
            [CACHE_VERSION, *(getattr(self, f.name) for f in fields(self))],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def describe(self) -> str:
        return (f"{self.model_name}/{self.benchmark} "
                f"({self.num_clusters}cl, x{self.latency_scale:g}, "
                f"{self.instructions}i, tag={self.policy_tag}"
                + (f", faults={self.fault_spec}" if self.fault_spec else "")
                + (f", gating={self.gating_policy}"
                   if self.gating_policy else "")
                + ")")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentPlan":
        """Rebuild a plan from untrusted JSON; raises ``ValueError``.

        Every field is type-checked against its annotation (a float
        field also takes a JSON integer), and fields without a default
        are required, so a malformed service submission or a
        hand-edited manifest fails loudly at the boundary instead of
        poisoning a cache key downstream.
        """
        if not isinstance(data, dict):
            raise ValueError(f"plan must be a JSON object, got "
                             f"{type(data).__name__}")
        plan_fields = fields(cls)
        allowed = {f.name for f in plan_fields}
        unknown = sorted(str(name) for name in data if name not in allowed)
        if unknown:
            raise ValueError(f"unknown plan field(s): {', '.join(unknown)}")
        hints = get_type_hints(cls)
        for field_def in plan_fields:
            name = field_def.name
            if name not in data:
                if field_def.default is MISSING:
                    raise ValueError(f"plan is missing {name!r}")
                continue
            types = (int, float) if hints[name] is float else (hints[name],)
            value = data[name]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(
                    f"plan field {name!r} must be "
                    f"{' or '.join(t.__name__ for t in types)}, "
                    f"got {value!r}"
                )
        return cls(**data)


def _simulator_commit() -> str:
    """Current git commit of the simulator tree, for provenance."""
    global _COMMIT
    if _COMMIT is None:
        root = Path(__file__).resolve().parents[3]
        try:
            _COMMIT = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _COMMIT = "unknown"
    return _COMMIT


_COMMIT: Optional[str] = None


class ResultCache:
    """JSON-file cache of :class:`BenchmarkRun` results.

    Writes are atomic; loads are schema-validated.  Files that parse but
    fail validation (truncated rewrite, wrong ``cache_version``, missing
    or mistyped fields) are moved into a ``quarantine/`` subdirectory so
    they can be inspected without ever being served as results.

    Entries are sharded two directory levels deep by cache-key prefix
    (``ab/cd/abcd....json``) so frontier sweeps writing tens of
    thousands of results never produce one giant flat directory.  The
    pre-sharding flat layout is still readable: a flat entry is
    migrated into its shard on first load.
    """

    def __init__(self, directory: Optional[Path] = None,
                 enabled: Optional[bool] = None,
                 profiler: Optional[HarnessProfiler] = None) -> None:
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if directory is None:
            directory = Path(
                os.environ.get("REPRO_CACHE_DIR",
                               Path(__file__).resolve().parents[3]
                               / ".repro_cache")
            )
        self.directory = Path(directory)
        if os.environ.get("REPRO_NO_CACHE", "") == "1":
            self.enabled = False
        elif enabled is None:
            self.enabled = True
        else:
            self.enabled = enabled

    def _path(self, plan: ExperimentPlan) -> Path:
        key = plan.cache_key()
        return self.directory / key[:2] / key[2:4] / f"{key}.json"

    def _migrate_legacy(self, sharded: Path) -> Optional[Path]:
        """Move a flat-layout entry into its shard (best effort).

        Returns the path to read from -- the sharded location after a
        successful move, the flat file itself if the move failed (e.g.
        a read-only cache directory), or None when no flat entry
        exists.
        """
        legacy = self.directory / sharded.name
        if not legacy.is_file():
            return None
        try:
            sharded.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, sharded)
            return sharded
        except OSError:
            return legacy

    def _quarantine(self, path: Path) -> None:
        """Move a bad cache file out of the way (best effort)."""
        try:
            qdir = self.directory / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _validate(data: object) -> Optional[Dict]:
        """The parsed payload if it matches the schema, else ``None``."""
        if not isinstance(data, dict):
            return None
        for key, types in _RESULT_SCHEMA.items():
            value = data.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                return None
        extra = data.get("extra", [])
        if not isinstance(extra, list):
            return None
        for pair in extra:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not isinstance(pair[0], str)
                    or not isinstance(pair[1], (int, float))
                    or isinstance(pair[1], bool)):
                return None
        # Entries written before provenance existed carry no version
        # field; the cache key already pins CACHE_VERSION, so only an
        # explicit mismatch (e.g. a hand-copied file) is rejected.
        provenance = data.get("provenance")
        if provenance is not None:
            if (not isinstance(provenance, dict)
                    or provenance.get("cache_version") != CACHE_VERSION):
                return None
        return data

    def load(self, plan: ExperimentPlan) -> Optional[BenchmarkRun]:
        if not self.enabled:
            return None
        prof = self.profiler
        start = prof.now() if prof.enabled else 0.0
        run = self._load(plan)
        if prof.enabled:
            prof.complete("cache.load", start, prof.now() - start,
                          category="cache", plan=plan.describe(),
                          hit=run is not None)
            prof.instant("cache.hit" if run is not None else "cache.miss",
                         category="cache", plan=plan.describe())
        return run

    def _load(self, plan: ExperimentPlan) -> Optional[BenchmarkRun]:
        path = self._path(plan)
        try:
            text = path.read_text()
        except OSError:
            path = self._migrate_legacy(path)
            if path is None:
                return None
            try:
                text = path.read_text()
            except OSError:
                return None
        try:
            # Malformed JSON and schema mismatches both raise ValueError.
            return _run_from_json(json.loads(text))
        except ValueError:
            self._quarantine(path)
            return None

    def store(self, plan: ExperimentPlan, run: BenchmarkRun,
              duration: Optional[float] = None) -> None:
        if not self.enabled:
            return
        prof = self.profiler
        start = prof.now() if prof.enabled else 0.0
        self._store(plan, run, duration)
        if prof.enabled:
            prof.complete("cache.store", start, prof.now() - start,
                          category="cache", plan=plan.describe())

    def _store(self, plan: ExperimentPlan, run: BenchmarkRun,
               duration: Optional[float]) -> None:
        payload = dict(_run_to_json(run), provenance={
            "cache_version": CACHE_VERSION,
            "plan": asdict(plan),
            "duration_seconds": duration,
            "simulator_commit": _simulator_commit(),
        })
        path = self._path(plan)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: a same-directory temp file renamed over the
        # target, so readers only ever see complete JSON.
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def simulate_plan(
    plan: ExperimentPlan,
    telemetry: Optional[Telemetry] = None,
    interconnect_model: Optional[InterconnectModel] = None,
) -> BenchmarkRun:
    """Simulate one plan, uncached; ``telemetry`` optionally observes it.

    ``interconnect_model`` overrides the model ``plan.model_name``
    names (the policy-flag ablations use this).
    """
    if interconnect_model is None:
        interconnect_model = model(plan.model_name)
    return simulate_benchmark(
        interconnect_model.config, plan.benchmark,
        instructions=plan.instructions, warmup=plan.warmup,
        num_clusters=plan.num_clusters, seed=plan.seed,
        latency_scale=plan.latency_scale,
        fault_spec=plan.fault_spec or None,
        telemetry=telemetry,
        gating=plan.gating_policy or None,
    )


def _execute_plan(
    plan: ExperimentPlan,
    interconnect_model: Optional[InterconnectModel] = None,
) -> Tuple[BenchmarkRun, float]:
    """Simulate one plan, timed: what serial sweeps and workers run."""
    start = time.perf_counter()
    run = simulate_plan(plan, interconnect_model=interconnect_model)
    return run, time.perf_counter() - start


@dataclass(frozen=True)
class RunFailure:
    """One plan that a sweep could not complete."""

    plan: ExperimentPlan
    #: "timeout" (killed past run_timeout), "crash" (worker died without
    #: reporting), "error" (the simulator raised), "cancelled" (the
    #: sweep's cancel event fired) or "breaker-open" (the sweep service
    #: was degraded to cache-only mode).
    reason: str
    detail: str
    attempts: int

    def describe(self) -> str:
        return (f"{self.plan.describe()}: {self.reason} after "
                f"{self.attempts} attempt(s) -- {self.detail}")

    def to_json(self) -> Dict[str, object]:
        return {
            "plan": self.plan.to_dict(),
            "reason": self.reason,
            "detail": self.detail,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: object) -> "RunFailure":
        if not isinstance(data, dict):
            raise ValueError("failure entry must be a JSON object")
        reason = data.get("reason")
        detail = data.get("detail")
        attempts = data.get("attempts")
        if (not isinstance(reason, str) or not isinstance(detail, str)
                or not isinstance(attempts, int)
                or isinstance(attempts, bool)):
            raise ValueError(f"malformed failure entry: {data!r}")
        return cls(plan=ExperimentPlan.from_dict(data.get("plan")),
                   reason=reason, detail=detail, attempts=attempts)


@dataclass(frozen=True)
class SweepSummary:
    """What one :meth:`ExperimentRunner.run_many` sweep did."""

    requested: int
    unique: int
    executed: int
    cache_hits: int
    total_duration: float
    max_duration: float
    failed: int = 0

    def render(self) -> str:
        return (f"sweep: {self.executed} executed, "
                f"{self.cache_hits} cache hits"
                + (f", {self.failed} FAILED" if self.failed else "")
                + (f", {self.requested - self.unique} duplicate plans "
                   f"coalesced" if self.requested != self.unique else "")
                + (f"; sim time total {self.total_duration:.2f}s, "
                   f"max {self.max_duration:.2f}s per run"
                   if self.executed else ""))

    @classmethod
    def from_json(cls, data: object) -> "SweepSummary":
        if not isinstance(data, dict):
            raise ValueError("sweep summary must be a JSON object")
        kwargs = {}
        for field_def in fields(cls):
            value = data.get(field_def.name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                raise ValueError(
                    f"sweep summary field {field_def.name!r} must be "
                    f"numeric, got {value!r}"
                )
            kwargs[field_def.name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepReport:
    """Partial-failure result of a sweep: completed runs + manifest."""

    results: Dict[ExperimentPlan, BenchmarkRun]
    failures: Tuple[RunFailure, ...]
    summary: SweepSummary

    @property
    def ok(self) -> bool:
        return not self.failures

    def manifest(self) -> str:
        """Human-readable failure manifest ("" when everything ran)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} run(s) failed:"]
        for failure in self.failures:
            lines.append(f"  - {failure.describe()}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """A schema-versioned JSON dict; inverse of :meth:`from_json`.

        Result entries are ordered by plan cache key so the serialized
        form is independent of completion order -- a crashed sweep's
        manifest and its resumed rerun serialize identically.
        """
        ordered = sorted(self.results.items(),
                         key=lambda item: item[0].cache_key())
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "results": [
                {"plan": plan.to_dict(), "run": _run_to_json(run)}
                for plan, run in ordered
            ],
            "failures": [failure.to_json() for failure in self.failures],
            "summary": asdict(self.summary),
        }

    @classmethod
    def from_json(cls, data: object) -> "SweepReport":
        """Rebuild a report written by :meth:`to_json`.

        Raises ``ValueError`` on a version mismatch or malformed
        payload -- a manifest from a future schema must never be
        half-parsed into a resumable state.
        """
        if not isinstance(data, dict):
            raise ValueError("sweep report must be a JSON object")
        version = data.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported sweep report schema_version {version!r} "
                f"(this build reads version {REPORT_SCHEMA_VERSION})"
            )
        raw_results = data.get("results")
        raw_failures = data.get("failures")
        if not isinstance(raw_results, list) or not isinstance(
                raw_failures, list):
            raise ValueError("sweep report results/failures must be lists")
        results: Dict[ExperimentPlan, BenchmarkRun] = {}
        for entry in raw_results:
            if not isinstance(entry, dict):
                raise ValueError(f"malformed result entry: {entry!r}")
            plan = ExperimentPlan.from_dict(entry.get("plan"))
            results[plan] = _run_from_json(entry.get("run"))
        failures = tuple(RunFailure.from_json(entry)
                         for entry in raw_failures)
        return cls(results=results, failures=failures,
                   summary=SweepSummary.from_json(data.get("summary")))

    @property
    def unfinished_plans(self) -> Tuple[ExperimentPlan, ...]:
        """Plans a resumed sweep still has to run (manifest order)."""
        return tuple(failure.plan for failure in self.failures)


def _run_to_json(run: BenchmarkRun) -> Dict[str, object]:
    return {
        "benchmark": run.benchmark,
        "instructions": run.instructions,
        "cycles": run.cycles,
        "interconnect_dynamic": run.interconnect_dynamic,
        "interconnect_leakage": run.interconnect_leakage,
        "extra": [list(pair) for pair in run.extra],
    }


def _run_from_json(data: object) -> BenchmarkRun:
    validated = ResultCache._validate(data)
    if validated is None:
        raise ValueError(f"malformed benchmark-run entry: {data!r}")
    return BenchmarkRun(
        benchmark=validated["benchmark"],
        instructions=validated["instructions"],
        cycles=validated["cycles"],
        interconnect_dynamic=validated["interconnect_dynamic"],
        interconnect_leakage=validated["interconnect_leakage"],
        extra=tuple((k, v) for k, v in validated.get("extra", [])),
    )


class SweepError(RuntimeError):
    """A sweep in raise-mode finished with failures.

    Carries the full :class:`SweepReport`, so callers can still salvage
    the completed runs from ``exc.report.results``.
    """

    def __init__(self, report: SweepReport) -> None:
        super().__init__(report.manifest())
        self.report = report


class ExperimentRunner:
    """Executes experiment plans, consulting the cache first.

    ``workers`` sets the default process fan-out for
    :meth:`run_many`; 1 (the default) keeps everything in-process.
    ``run_timeout`` (seconds) bounds each run's wall clock;
    ``max_retries`` retries crashed/timed-out workers with seeded
    decorrelated-jitter backoff (base ``retry_backoff`` seconds,
    capped at ``retry_backoff_cap``; see
    :mod:`repro.harness.backoff`) before declaring the run failed.
    Jitter keeps herds of retrying workers from synchronizing while
    staying a pure function of each plan, so replayed sweeps retry on
    identical schedules.  Setting a timeout routes even a one-worker
    sweep through a worker process, so a wedged simulation can
    actually be killed.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 verbose: bool = True, workers: int = 1,
                 run_timeout: Optional[float] = None,
                 max_retries: int = 0,
                 retry_backoff: float = 0.25,
                 retry_backoff_cap: float = 30.0,
                 profiler: Optional[HarnessProfiler] = None) -> None:
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be positive seconds")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if retry_backoff_cap < retry_backoff:
            raise ValueError("retry_backoff_cap must be >= retry_backoff")
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.cache = cache or ResultCache(profiler=self.profiler)
        if profiler is not None and self.cache.profiler is NULL_PROFILER:
            # An explicitly supplied cache joins the runner's timeline.
            self.cache.profiler = profiler
        self.verbose = verbose
        self.workers = max(1, workers)
        self.run_timeout = run_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.executed = 0
        self.cache_hits = 0
        self.total_duration = 0.0
        self.max_duration = 0.0
        self.last_summary: Optional[SweepSummary] = None
        self.last_report: Optional[SweepReport] = None

    def _record(self, plan: ExperimentPlan, run: BenchmarkRun,
                duration: float) -> None:
        self.executed += 1
        self.total_duration += duration
        self.max_duration = max(self.max_duration, duration)
        self.cache.store(plan, run, duration=duration)

    def run(self, plan: ExperimentPlan,
            interconnect_model: Optional[InterconnectModel] = None
            ) -> BenchmarkRun:
        cached = self.cache.load(plan)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if self.verbose:
            print(f"  running {plan.model_name:>4s}/{plan.benchmark:<8s} "
                  f"({plan.num_clusters}cl, x{plan.latency_scale:g})",
                  flush=True)
        with self.profiler.span("run.execute", category="run",
                                plan=plan.describe()):
            run, duration = _execute_plan(plan, interconnect_model)
        self._record(plan, run, duration)
        return run

    def run_many(
        self,
        plans: Sequence[ExperimentPlan],
        workers: Optional[int] = None,
        models: Optional[Mapping[ExperimentPlan, InterconnectModel]] = None,
        run_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> Dict[ExperimentPlan, BenchmarkRun]:
        """Run a batch of plans, fanning cache misses across processes.

        Duplicate plans are coalesced and simulated once.  ``models``
        optionally overrides the interconnect model per plan (used by
        the policy-flag ablations).  Returns a plan -> run mapping
        covering every distinct input plan; sets :attr:`last_summary`.
        Raises :class:`SweepError` (carrying the partial results and
        the failure manifest) if any run ultimately fails; use
        :meth:`run_many_report` to get partial results without raising.
        """
        report = self.run_many_report(
            plans, workers=workers, models=models,
            run_timeout=run_timeout, max_retries=max_retries,
        )
        if report.failures:
            raise SweepError(report)
        return dict(report.results)

    def run_many_report(
        self,
        plans: Sequence[ExperimentPlan],
        workers: Optional[int] = None,
        models: Optional[Mapping[ExperimentPlan, InterconnectModel]] = None,
        run_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        cancel: Optional[threading.Event] = None,
    ) -> SweepReport:
        """Like :meth:`run_many`, but never raises on worker failure.

        Completed runs land in ``report.results``; crashed, timed-out
        and erroring plans land in ``report.failures`` after
        ``max_retries`` retry rounds.  Sets :attr:`last_summary` and
        :attr:`last_report`.

        ``cancel`` (a :class:`threading.Event`, settable from another
        thread) aborts the sweep cooperatively: active worker
        processes are terminated and every unfinished plan lands in
        the manifest with reason ``"cancelled"``.  Completed results
        are kept -- a cancelled sweep is resumable, not lost.
        """
        workers = self.workers if workers is None else max(1, workers)
        run_timeout = (self.run_timeout if run_timeout is None
                       else run_timeout)
        max_retries = (self.max_retries if max_retries is None
                       else max_retries)
        prof = self.profiler
        sweep_start = prof.now() if prof.enabled else 0.0
        unique: List[ExperimentPlan] = list(dict.fromkeys(plans))
        results: Dict[ExperimentPlan, BenchmarkRun] = {}
        misses: List[ExperimentPlan] = []
        for plan in unique:
            cached = self.cache.load(plan)
            if cached is not None:
                self.cache_hits += 1
                results[plan] = cached
            else:
                misses.append(plan)

        executed = 0
        total = 0.0
        peak = 0.0
        failures: List[RunFailure] = []
        if misses:
            if self.verbose:
                for plan in misses:
                    print(f"  running {plan.describe()}", flush=True)
            # A timeout can only be enforced on a killable process, so
            # any timeout (or parallelism) routes through the
            # crash-isolated pool; the plain serial path stays
            # in-process and cheap.
            if run_timeout is not None or (workers > 1 and len(misses) > 1):
                outcomes = self._run_isolated(
                    misses, models, workers, run_timeout, max_retries,
                    cancel=cancel)
            else:
                outcomes = {}
                for plan in misses:
                    if cancel is not None and cancel.is_set():
                        outcomes[plan] = RunFailure(
                            plan=plan, reason="cancelled",
                            detail="sweep cancelled before launch",
                            attempts=0,
                        )
                        continue
                    try:
                        with prof.span("run.execute", category="run",
                                       plan=plan.describe()):
                            outcomes[plan] = _execute_plan(
                                plan, models.get(plan) if models else None)
                    # Crash-isolation boundary (serial path): mirror
                    # the worker-pool contract -- an erroring plan
                    # becomes a RunFailure in the sweep manifest, it
                    # must not abort the remaining plans.
                    except Exception as exc:  # simlint: disable=SIM302
                        outcomes[plan] = RunFailure(
                            plan=plan, reason="error",
                            detail=f"{type(exc).__name__}: {exc}",
                            attempts=1,
                        )
            for plan in misses:
                outcome = outcomes[plan]
                if isinstance(outcome, RunFailure):
                    failures.append(outcome)
                    if self.verbose:
                        print(f"  FAILED {outcome.describe()}", flush=True)
                    continue
                run, duration = outcome
                self._record(plan, run, duration)
                results[plan] = run
                executed += 1
                total += duration
                peak = max(peak, duration)

        self.last_summary = SweepSummary(
            requested=len(plans), unique=len(unique), executed=executed,
            cache_hits=len(unique) - len(misses),
            total_duration=total, max_duration=peak,
            failed=len(failures),
        )
        self.last_report = SweepReport(
            results=results, failures=tuple(failures),
            summary=self.last_summary,
        )
        if prof.enabled:
            prof.complete("sweep", sweep_start, prof.now() - sweep_start,
                          category="sweep", requested=len(plans),
                          executed=executed,
                          cache_hits=len(unique) - len(misses),
                          failed=len(failures))
        if self.verbose:
            print(f"  {self.last_summary.render()}", flush=True)
        return self.last_report

    def _run_isolated(
        self,
        misses: Sequence[ExperimentPlan],
        models: Optional[Mapping[ExperimentPlan, InterconnectModel]],
        workers: int,
        run_timeout: Optional[float],
        max_retries: int,
        cancel: Optional[threading.Event] = None,
    ) -> Dict[ExperimentPlan, object]:
        """Execute plans on up to ``workers`` long-lived worker processes.

        Workers are forked for this call only and each runs plan after
        plan.  Plans are dispatched in trace-key order -- every plan of
        one (benchmark, seed) back to back, keys in order of first
        appearance -- and an idle worker takes the next launchable one,
        so a worker annotates each trace once.  A worker that dies
        without reporting or exceeds ``run_timeout`` is terminated and
        replaced; only its in-flight plan is retried, with seeded
        decorrelated-jitter backoff, up to ``max_retries`` times.  A
        plan that raises is not retried.  No worker outlives the call.
        Returns plan -> (run, duration) | RunFailure.
        """
        outcomes: Dict[ExperimentPlan, object] = {}
        keys: Dict[Tuple[str, int], int] = {}
        for plan in misses:
            keys.setdefault((plan.benchmark, plan.seed), len(keys))
        # (plan, attempt, not-before-monotonic-time), in trace-key order
        ready = deque((plan, 0, 0.0) for plan in sorted(
            misses, key=lambda p: keys[p.benchmark, p.seed]))
        pool: List[Worker] = []
        ending = "exit"
        # Per-plan retry schedules, seeded from the plan so replays
        # back off identically while distinct plans stay decorrelated.
        backoffs: Dict[ExperimentPlan, DecorrelatedJitter] = {}

        def finish(plan, attempt, reason, detail):
            if reason in ("timeout", "crash") and attempt < max_retries:
                schedule = backoffs.get(plan)
                if schedule is None:
                    schedule = backoffs[plan] = DecorrelatedJitter(
                        self.retry_backoff, cap=self.retry_backoff_cap,
                        seed=plan.seed, key=plan.cache_key(),
                    )
                delay = schedule.next()
                if self.verbose:
                    print(f"  retrying {plan.describe()} after {reason} "
                          f"(attempt {attempt + 2}, backoff {delay:.2f}s)",
                          flush=True)
                ready.append((plan, attempt + 1, time.monotonic() + delay))
            else:
                outcomes[plan] = RunFailure(
                    plan=plan, reason=reason, detail=detail,
                    attempts=attempt + 1,
                )

        try:
            while ready or any(w.job is not None for w in pool):
                if cancel is not None and cancel.is_set():
                    # Cooperative abort: every worker is killed below,
                    # everything unfinished is marked cancelled, and
                    # completed outcomes survive.
                    ending = "cancelled"
                    for worker in pool:
                        if worker.job is not None:
                            plan, attempt = worker.end_job(ending)
                            outcomes[plan] = RunFailure(
                                plan=plan, reason="cancelled",
                                detail="sweep cancelled while running",
                                attempts=attempt + 1,
                            )
                    for plan, attempt, _not_before in ready:
                        outcomes[plan] = RunFailure(
                            plan=plan, reason="cancelled",
                            detail="sweep cancelled before launch",
                            attempts=attempt,
                        )
                    break
                # Fork workers (at the start, and to replace retired
                # ones) while there are plans for them; then idle
                # workers take the next launchable plans in order.
                busy = sum(w.job is not None for w in pool)
                while len(pool) < min(workers, busy + len(ready)):
                    pool.append(Worker(_execute_plan, self.profiler))
                idle = [w for w in pool if w.job is None]
                now = time.monotonic()
                for _ in range(len(ready)):
                    if not idle:
                        break
                    plan, attempt, not_before = ready.popleft()
                    if not_before > now:
                        ready.append((plan, attempt, not_before))
                        continue
                    idle.pop().start(plan, attempt,
                                     models.get(plan) if models else None)

                progressed = False
                for worker in list(pool):
                    message = worker.poll(run_timeout)
                    if message is None:
                        continue
                    progressed = True
                    reason = message[0]
                    job = (worker.end_job(reason)
                           if worker.job is not None else None)
                    if reason in ("crash", "timeout"):
                        # Retired here, replaced at the top of the loop
                        # if plans are left for it.
                        pool.remove(worker)
                        worker.stop(reason)
                    if job is None:
                        continue
                    plan, attempt = job
                    if reason == "ok":
                        outcomes[plan] = (message[1], message[2])
                    elif reason == "error":
                        finish(plan, attempt, reason,
                               f"{message[1]}: {message[2]}")
                    elif reason == "timeout":
                        finish(plan, attempt, reason,
                               f"exceeded run timeout of {run_timeout:g}s")
                    else:
                        finish(plan, attempt, reason,
                               f"worker died without a result "
                               f"(exit code {worker.proc.exitcode})")
                if not progressed:
                    wait_any(pool, 0.01)
        finally:
            for worker in pool:
                worker.stop(ending)
        return outcomes

    def run_model(self, model_name: str,
                  benchmarks: Optional[Sequence[str]] = None,
                  num_clusters: int = 4, latency_scale: float = 1.0,
                  instructions: int = DEFAULT_INSTRUCTIONS,
                  warmup: int = DEFAULT_WARMUP,
                  seed: int = DEFAULT_SEED,
                  workers: Optional[int] = None) -> ModelResult:
        names: Iterable[str] = tuple(benchmarks or BENCHMARK_NAMES)
        plans = [
            ExperimentPlan(
                model_name=model_name, benchmark=name,
                num_clusters=num_clusters, latency_scale=latency_scale,
                instructions=instructions, warmup=warmup, seed=seed,
            )
            for name in names
        ]
        results = self.run_many(plans, workers=workers)
        return ModelResult(model=model_name,
                           runs=tuple(results[p] for p in plans))

    def run_model_with_flags(self, model_name: str, flags: PolicyFlags,
                             tag: str,
                             benchmarks: Optional[Sequence[str]] = None,
                             num_clusters: int = 4,
                             instructions: int = DEFAULT_INSTRUCTIONS,
                             warmup: int = DEFAULT_WARMUP,
                             seed: int = DEFAULT_SEED,
                             workers: Optional[int] = None) -> ModelResult:
        """A model's link composition with modified policy flags.

        Used by the ablation benchmarks; ``tag`` names the flag variant
        in the cache key.
        """
        base = model(model_name)
        custom = InterconnectModel(
            name=model_name,
            config=InterconnectConfig(wires=dict(base.config.wires),
                                      flags=flags),
        )
        names: Iterable[str] = tuple(benchmarks or BENCHMARK_NAMES)
        plans = [
            ExperimentPlan(
                model_name=model_name, benchmark=name,
                num_clusters=num_clusters, instructions=instructions,
                warmup=warmup, seed=seed, policy_tag=tag,
            )
            for name in names
        ]
        results = self.run_many(plans, workers=workers,
                                models={p: custom for p in plans})
        return ModelResult(model=f"{model_name}:{tag}",
                           runs=tuple(results[p] for p in plans))
