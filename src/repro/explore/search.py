"""Search drivers: from a design space to an evaluated frontier.

Small spaces are swept exhaustively; spaces larger than the point
budget get a seeded random sample followed by local-neighbourhood
refinement around the running Pareto frontier.  Either way every
design point compiles to :class:`~repro.harness.runner.ExperimentPlan`
batches executed through an *executor* -- a callable from plans to a
:class:`~repro.harness.runner.SweepReport` -- so a frontier sweep is
cached, crash-isolated, resumable, and can be routed through a local
:class:`~repro.harness.runner.ExperimentRunner` or submitted to a
running ``repro serve`` instance unchanged.

Determinism contract: with equal space, budget, seed and settings, the
wave sequence (and therefore the set of evaluated points and the
frontier) is identical run to run.  All randomness flows from the
``seed`` argument; all iteration orders are canonical sorts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.metrics import DYNAMIC_SHARE, LEAKAGE_SHARE, BenchmarkRun
from ..harness.profiling import NULL_PROFILER, HarnessProfiler
from ..harness.runner import ExperimentPlan, RunFailure, SweepReport
from ..wires import (
    CANONICAL_SPECS,
    FREQ_BASE_GHZ,
    WireClass,
    link_metal_area_mm2,
    node_scaling,
)
from .pareto import DEFAULT_OBJECTIVES, Objective, pareto_frontier
from .space import (
    TOPOLOGIES,
    DesignPoint,
    PointMetrics,
    check_canonical_gating,
)

#: An executor turns a plan batch into a SweepReport (local runner or
#: sweep-service client).
Executor = Callable[[Sequence[ExperimentPlan]], SweepReport]


def baseline_point() -> DesignPoint:
    """The normalization anchor: the paper's Model I at 45 nm."""
    return DesignPoint.from_mix(45, {WireClass.B: 144}, "xbar4")


@dataclass(frozen=True)
class SearchSpace:
    """The grid of candidate design points.

    Wire options are bidirectional totals; a ``0`` option means "no
    plane of that class".  Mixes with no bulk-capable plane (B, PW or
    W) are excluded up front -- they cannot carry full-width traffic.
    ``gating_policies`` is the plane power-management axis: canonical
    gating-policy strings (see :mod:`repro.power`), where ``""`` keeps
    every plane always on.  The default sweeps only the ungated
    configuration, so pre-gating spaces are unchanged.
    """

    nodes: Tuple[int, ...]
    b_options: Tuple[int, ...] = (144, 288)
    pw_options: Tuple[int, ...] = (0, 288)
    l_options: Tuple[int, ...] = (0, 36)
    topologies: Tuple[str, ...] = ("xbar4",)
    gating_policies: Tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        for topology in self.topologies:
            if topology not in TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {topology!r}; choose from "
                    f"{', '.join(sorted(TOPOLOGIES))}"
                )
        if not self.gating_policies:
            raise ValueError(
                "search space needs at least one gating policy "
                "(use \"\" for always-on planes)"
            )
        for gating in self.gating_policies:
            check_canonical_gating(gating)
        if not self.points():
            raise ValueError(
                "search space has no design point: it needs a node, a "
                "topology and a wire mix with a B, PW or W plane"
            )

    def _axes(self) -> Tuple[Tuple[WireClass, Tuple[int, ...]], ...]:
        return (
            (WireClass.B, tuple(self.b_options)),
            (WireClass.PW, tuple(self.pw_options)),
            (WireClass.L, tuple(self.l_options)),
        )

    def _mix_valid(self, mix: Dict[WireClass, int]) -> bool:
        return any(
            mix.get(wc, 0) > 0
            for wc in (WireClass.B, WireClass.PW, WireClass.W)
        )

    def points(self) -> Tuple[DesignPoint, ...]:
        """Every valid point of the grid, in canonical encode order."""
        points: List[DesignPoint] = []
        for node in self.nodes:
            for topology in self.topologies:
                for gating in self.gating_policies:
                    for mix in self._mixes():
                        points.append(DesignPoint.from_mix(
                            node, mix, topology, gating=gating,
                        ))
        points.sort(key=DesignPoint.encode)
        return tuple(points)

    def _mixes(self) -> List[Dict[WireClass, int]]:
        mixes: List[Dict[WireClass, int]] = [{}]
        for wire_class, options in self._axes():
            extended: List[Dict[WireClass, int]] = []
            for mix in mixes:
                for count in options:
                    grown = dict(mix)
                    if count:
                        grown[wire_class] = count
                    extended.append(grown)
            mixes = extended
        return [mix for mix in mixes if self._mix_valid(mix)]

    def size(self) -> int:
        return len(self.points())

    def neighbors(self, point: DesignPoint) -> Tuple[DesignPoint, ...]:
        """Points one grid step away on exactly one axis.

        Axes are the node (within :attr:`nodes`), each wire-class count
        (within its options), the topology and the gating policy.
        Invalid mixes (no bulk plane) are skipped.
        """
        mix = point.wire_mapping()
        results: Set[DesignPoint] = set()

        def nudged(values: Sequence, current) -> List:
            out = []
            if current in values:
                index = list(values).index(current)
                if index > 0:
                    out.append(values[index - 1])
                if index + 1 < len(values):
                    out.append(values[index + 1])
            return out

        for node in nudged(self.nodes, point.node):
            results.add(DesignPoint.from_mix(node, mix, point.topology,
                                             gating=point.gating))
        for topology in nudged(self.topologies, point.topology):
            results.add(DesignPoint.from_mix(point.node, mix, topology,
                                             gating=point.gating))
        for gating in nudged(self.gating_policies, point.gating):
            results.add(DesignPoint.from_mix(point.node, mix,
                                             point.topology,
                                             gating=gating))
        for wire_class, options in self._axes():
            for count in nudged(options, mix.get(wire_class, 0)):
                new_mix = dict(mix)
                if count:
                    new_mix[wire_class] = count
                else:
                    new_mix.pop(wire_class, None)
                if self._mix_valid(new_mix):
                    results.add(DesignPoint.from_mix(
                        point.node, new_mix, point.topology,
                        gating=point.gating,
                    ))
        return tuple(sorted(results, key=DesignPoint.encode))


@dataclass(frozen=True)
class EvaluationSettings:
    """Everything one point evaluation depends on besides the point."""

    benchmarks: Tuple[str, ...]
    instructions: int
    warmup: int
    seed: int
    #: Share of chip energy the interconnect contributes in the
    #: baseline (the paper's tables use 0.10 and 0.20).
    interconnect_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("evaluation needs at least one benchmark")
        if not 0.0 < self.interconnect_fraction < 1.0:
            raise ValueError("interconnect fraction must be in (0, 1)")


@dataclass(frozen=True)
class ExploreResult:
    """Everything one exploration produced."""

    evaluated: Tuple[PointMetrics, ...]
    frontier: Tuple[PointMetrics, ...]
    failures: Tuple[RunFailure, ...]
    space_size: int
    executed: int
    cache_hits: int
    objectives: Tuple[Objective, ...] = DEFAULT_OBJECTIVES
    baseline: Optional[PointMetrics] = None

    def render_summary(self) -> str:
        runs = self.executed + self.cache_hits
        return (
            f"explore: {len(self.evaluated)} point(s) evaluated of "
            f"{self.space_size} in space ({runs} runs: "
            f"{self.executed} executed, {self.cache_hits} cache hits, "
            f"{len(self.failures)} failed), "
            f"frontier size {len(self.frontier)}"
        )


@dataclass
class _Aggregate:
    """Raw per-point sums before normalization."""

    cycles: int = 0
    dynamic: float = 0.0
    leakage: float = 0.0
    ipc_sum: float = 0.0
    runs: int = 0

    def add(self, run: BenchmarkRun) -> None:
        self.cycles += run.cycles
        self.dynamic += run.interconnect_dynamic
        self.leakage += run.interconnect_leakage
        self.ipc_sum += run.ipc
        self.runs += 1


def _aggregate(point: DesignPoint, settings: EvaluationSettings,
               results: Dict[ExperimentPlan, BenchmarkRun],
               ) -> Optional[_Aggregate]:
    """Fold the point's runs; None when any benchmark is missing."""
    total = _Aggregate()
    for plan in point.compile_plans(settings.benchmarks,
                                    settings.instructions,
                                    settings.warmup, settings.seed):
        run = results.get(plan)
        if run is None:
            return None
        total.add(run)
    return total


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 for an empty denominator.

    Zero-traffic baselines (e.g. a gated-out plane that never carried a
    transfer, or a degenerate zero-cycle window) must report a zero
    share, not raise ZeroDivisionError.
    """
    return numerator / denominator if denominator else 0.0


def _point_metrics(point: DesignPoint, total: _Aggregate,
                   base: _Aggregate,
                   settings: EvaluationSettings) -> PointMetrics:
    """Normalize one point against the 45 nm Model I baseline."""
    scaling = node_scaling(point.node)
    freq_ratio = scaling.frequency_ghz / FREQ_BASE_GHZ
    rel_delay = _safe_ratio(total.cycles / freq_ratio, base.cycles)
    rel_dynamic = _safe_ratio(total.dynamic * scaling.dynamic_scale,
                              base.dynamic)
    # Leakage energy = leakage power x time; the simulator reports
    # wire-cycles, and a cycle shrinks with the node's clock.
    rel_leakage = _safe_ratio(
        total.leakage * scaling.leakage_scale / freq_ratio,
        base.leakage,
    )
    fraction = settings.interconnect_fraction
    energy = 100.0 * (1.0 - fraction) + 100.0 * fraction * (
        DYNAMIC_SHARE * rel_dynamic + LEAKAGE_SHARE * rel_leakage
    )
    composition = point.wire_mapping()
    tracks = sum(
        count * CANONICAL_SPECS[wire_class].area_factor
        for wire_class, count in composition.items()
    )
    num_links = TOPOLOGIES[point.topology]
    return PointMetrics(
        point=point,
        ipc=total.ipc_sum / total.runs,
        rel_delay=rel_delay,
        rel_dynamic=rel_dynamic,
        rel_leakage=rel_leakage,
        energy=energy,
        ed2=energy * rel_delay * rel_delay,
        area_mm2=link_metal_area_mm2(tracks * num_links, point.node),
    )


def runner_executor(runner, workers: Optional[int] = None) -> Executor:
    """Execute plan waves through a local ExperimentRunner."""
    def execute(plans: Sequence[ExperimentPlan]) -> SweepReport:
        return runner.run_many_report(list(plans), workers=workers)
    return execute


def service_executor(client, priority: int = 0,
                     timeout: float = 600.0) -> Executor:
    """Execute plan waves by submitting jobs to a sweep service.

    Each wave becomes one idempotent job; the finished job's report is
    fetched back, so the explorer needs no shared cache directory with
    the server.
    """
    def execute(plans: Sequence[ExperimentPlan]) -> SweepReport:
        job = client.submit_and_wait(list(plans), priority=priority,
                                     timeout=timeout)
        if job["state"] == "cancelled":
            raise RuntimeError(
                f"explore job {job['job_id']} was cancelled server-side"
            )
        return SweepReport.from_json(client.report(job["job_id"]))
    return execute


def explore(space: SearchSpace, settings: EvaluationSettings,
            execute: Executor, budget: int = 64,
            seed: int = 0,
            objectives: Tuple[Objective, ...] = DEFAULT_OBJECTIVES,
            profiler: Optional[HarnessProfiler] = None,
            ) -> ExploreResult:
    """Search ``space`` and return its evaluated Pareto frontier.

    ``budget`` caps the number of design points evaluated (the
    baseline anchor rides for free).  Spaces within budget are swept
    exhaustively; larger spaces get a seeded random sample of about
    two thirds of the budget, then neighbourhood refinement around the
    running frontier spends the rest.  ``seed`` drives the sampler
    only -- simulation seeds live in ``settings``.
    """
    if budget < 1:
        raise ValueError("exploration budget must be positive")
    prof = profiler if profiler is not None else NULL_PROFILER
    anchor = baseline_point()
    all_points = space.points()
    exhaustive = len(all_points) <= budget
    if exhaustive:
        first_wave = list(all_points)
    else:
        rng = random.Random(seed)
        sample_size = max(1, (2 * budget) // 3)
        first_wave = sorted(rng.sample(all_points, sample_size),
                            key=DesignPoint.encode)

    metrics_by_point: Dict[DesignPoint, PointMetrics] = {}
    aggregates: Dict[DesignPoint, _Aggregate] = {}
    failures: List[RunFailure] = []
    executed = 0
    cache_hits = 0
    base: Optional[_Aggregate] = None

    def run_wave(points: List[DesignPoint], label: str) -> None:
        nonlocal executed, cache_hits, base
        plans: List[ExperimentPlan] = []
        wave_points = list(points)
        if base is None and anchor not in wave_points:
            wave_points.append(anchor)
        for point in wave_points:
            plans.extend(point.compile_plans(
                settings.benchmarks, settings.instructions,
                settings.warmup, settings.seed,
            ))
        start = prof.now() if prof.enabled else 0.0
        report = execute(plans)
        if prof.enabled:
            prof.complete("explore.wave", start, prof.now() - start,
                          category="explore", wave=label,
                          points=len(wave_points), plans=len(plans))
        executed += report.summary.executed
        cache_hits += report.summary.cache_hits
        failures.extend(report.failures)
        if base is None:
            base = _aggregate(anchor, settings, report.results)
            if base is None:
                raise RuntimeError(
                    "baseline design point failed to simulate; cannot "
                    "normalize explorer metrics"
                )
        for point in points:
            total = _aggregate(point, settings, report.results)
            if total is None:
                prof.instant("explore.point.failed",
                             category="explore", point=point.encode())
                continue
            aggregates[point] = total

    def finalize_metrics() -> None:
        for point, total in aggregates.items():
            if point not in metrics_by_point:
                metrics_by_point[point] = _point_metrics(
                    point, total, base, settings,
                )
                prof.instant("explore.point", category="explore",
                             point=point.encode(),
                             ed2=metrics_by_point[point].ed2)

    run_wave(first_wave, "initial")
    finalize_metrics()
    remaining = budget - len(first_wave)

    if not exhaustive:
        evaluated_points: Set[DesignPoint] = set(first_wave)
        while remaining > 0:
            frontier_now = pareto_frontier(
                tuple(metrics_by_point.values()), objectives,
                sort_key=lambda m: m.point.encode(),
            )
            candidates = sorted(
                {
                    neighbor
                    for metric in frontier_now
                    for neighbor in space.neighbors(metric.point)
                    if neighbor not in evaluated_points
                },
                key=DesignPoint.encode,
            )
            if not candidates:
                break
            wave = candidates[:remaining]
            evaluated_points.update(wave)
            run_wave(wave, f"refine@{budget - remaining}")
            finalize_metrics()
            remaining -= len(wave)

    evaluated = tuple(sorted(metrics_by_point.values(),
                             key=lambda m: m.point.encode()))
    frontier = pareto_frontier(evaluated, objectives,
                               sort_key=lambda m: m.point.encode())
    baseline_metrics = None
    if base is not None:
        baseline_metrics = metrics_by_point.get(anchor)
        if baseline_metrics is None:
            baseline_metrics = _point_metrics(anchor, base, base,
                                              settings)
    return ExploreResult(
        evaluated=evaluated,
        frontier=frontier,
        failures=tuple(failures),
        space_size=len(all_points),
        executed=executed,
        cache_hits=cache_hits,
        objectives=tuple(objectives),
        baseline=baseline_metrics,
    )
