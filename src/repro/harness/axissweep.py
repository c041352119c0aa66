"""Axis sweeps: one model across labelled values of one plan field.

An axis is a plan field worth sweeping on its own -- ``fault_spec``
(fault-free, transient bit-error rates, permanent plane kills) or
``gating_policy`` (always-on, idle countdowns, traffic-EWMA
hysteresis).  :func:`run_axis_sweep` runs a base plan over a list of
``(label, value)`` rows for that field across a benchmark set, and
:func:`render_axis_sweep` tabulates IPC against the columns the axis
cares about, relative to the row whose value is ``""`` (healthy wires,
always-on planes).  So the cost of losing the L-Wire plane, or the
leakage-vs-performance trade-off of an aggressive drowsy policy, is a
one-command answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.metrics import BenchmarkRun
from .formatting import render_table
from .runner import ExperimentPlan, ExperimentRunner, SweepReport

#: Benchmarks with distinct traffic mixes: cache-heavy, ILP-heavy,
#: narrow-operand-heavy.
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("gzip", "mcf", "art")

Runs = Sequence[BenchmarkRun]
#: A table column: header, and the cell for a row's runs given the
#: baseline row's runs (None when the baseline failed or is absent).
Column = Tuple[str, Callable[[Runs, Optional[Runs]], str]]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _energy(runs: Runs) -> float:
    return _mean(r.interconnect_dynamic + r.interconnect_leakage
                 for r in runs)


def _leakage(runs: Runs) -> float:
    return _mean(r.interconnect_leakage for r in runs)


def _dynamic(runs: Runs) -> float:
    return _mean(r.interconnect_dynamic for r in runs)


def _relative(metric: Callable[[Runs], float]
              ) -> Callable[[Runs, Optional[Runs]], str]:
    """Cell: ``metric`` relative to the baseline row (= 100)."""
    def cell(runs: Runs, base: Optional[Runs]) -> str:
        reference = metric(base) if base else 0.0
        return f"{100 * metric(runs) / reference:.0f}" if reference \
            else "n/a"
    return cell


def _total(key: str) -> Callable[[Runs, Optional[Runs]], str]:
    """Cell: one extra-stats counter summed over the row's runs."""
    def cell(runs: Runs, base: Optional[Runs]) -> str:
        return f"{sum(r.extra_stats().get(key, 0.0) for r in runs):.0f}"
    return cell


def _ed2(runs: Runs, base: Optional[Runs]) -> str:
    """ED^2 relative to the baseline: energy x (cycle ratio)^2."""
    if not base:
        return "n/a"
    base_cycles = _mean(r.cycles for r in base)
    base_energy = _leakage(base) + _dynamic(base)
    if not base_cycles or not base_energy:
        return "n/a"
    delay = _mean(r.cycles for r in runs) / base_cycles
    energy = (_leakage(runs) + _dynamic(runs)) / base_energy
    return f"{100.0 * energy * delay * delay:.0f}"


def _gated_share(runs: Runs, base: Optional[Runs]) -> str:
    shares = (r.extra_stats().get("gated_wire_cycle_share", 0.0)
              for r in runs)
    return f"{_mean(shares):.1%}"


@dataclass(frozen=True)
class SweepAxis:
    """One sweepable plan field and how its table looks."""

    #: The :class:`ExperimentPlan` field each row sets.
    field: str
    #: Header of the column showing each row's (canonical) value.
    header: str
    #: Table title; ``{model}`` is replaced by the swept model's name.
    title: str
    #: The default ``(label, value)`` rows; ``""`` is the baseline.
    rows: Tuple[Tuple[str, str], ...]
    #: Columns after Scenario / value / IPC / dIPC.
    columns: Tuple[Column, ...]


FAULT_AXIS = SweepAxis(
    field="fault_spec",
    header="Fault spec",
    title=("Fault-injection degradation sweep, model {model} (IPC and "
           "energy are means over the benchmark set; energy relative to "
           "fault-free = 100)"),
    rows=(
        ("fault-free", ""),
        ("ber 1e-6", "ber=1e-6"),
        ("ber 1e-5", "ber=1e-5"),
        ("L-plane kill", "kill=L@*@2000"),
        ("B-plane kill", "kill=B@*@2000"),
    ),
    columns=(
        ("Energy", _relative(_energy)),
        ("retx", _total("retransmissions")),
        ("escal", _total("retry_escalations")),
        ("reroutes", _total("degraded_reroutes")),
        ("killed", _total("planes_killed")),
    ),
)

GATING_AXIS = SweepAxis(
    field="gating_policy",
    header="Policy",
    title=("Plane-gating power sweep, model {model} (means over the "
           "benchmark set; leakage/dynamic/ED^2 relative to always-on "
           "= 100)"),
    rows=(
        ("always-on", ""),
        ("idle 64/256", "idle:drowsy=64,gate=256"),
        ("idle 16/64", "idle:drowsy=16,gate=64"),
        ("ewma h=64", "ewma:halflife=64,thr=0.5"),
    ),
    columns=(
        ("Leakage", _relative(_leakage)),
        ("Dynamic", _relative(_dynamic)),
        ("ED2", _ed2),
        ("wakes", _total("plane_wakes")),
        ("gated", _gated_share),
    ),
)


@dataclass(frozen=True)
class AxisSweepResult:
    """Aggregated rows of one axis sweep."""

    axis: SweepAxis
    model_name: str
    #: ``(label, canonical value, completed runs)`` per row.
    rows: Tuple[Tuple[str, str, Tuple[BenchmarkRun, ...]], ...]
    report: SweepReport

    def baseline(self) -> Optional[Tuple[BenchmarkRun, ...]]:
        """The runs of the first completed ``""`` row, if any."""
        for _label, value, runs in self.rows:
            if not value and runs:
                return runs
        return None


def run_axis_sweep(runner: ExperimentRunner,
                   axis: SweepAxis, base: ExperimentPlan,
                   rows: Optional[Sequence[Tuple[str, str]]] = None,
                   benchmarks: Optional[Sequence[str]] = None
                   ) -> AxisSweepResult:
    """Sweep ``base`` across ``rows`` of ``axis.field`` x benchmarks.

    Every other field -- model, window, seed, the other axis -- comes
    from ``base`` (whose own benchmark is replaced).  Uses
    :meth:`ExperimentRunner.run_many_report`, so a row whose worker
    crashes or times out drops into the report's failure manifest
    instead of sinking the whole sweep.
    """
    names = tuple(benchmarks or DEFAULT_BENCHMARKS)
    plans = [
        (label, [replace(base, benchmark=name, **{axis.field: value})
                 for name in names])
        for label, value in (axis.rows if rows is None else rows)
    ]
    report = runner.run_many_report(
        [plan for _label, per_row in plans for plan in per_row])
    return AxisSweepResult(
        axis=axis, model_name=base.model_name, report=report,
        rows=tuple(
            (label, getattr(per_row[0], axis.field),
             tuple(report.results[p] for p in per_row
                   if p in report.results))
            for label, per_row in plans
        ),
    )


def render_axis_sweep(result: AxisSweepResult) -> str:
    """The axis's table, plus any failure manifest."""
    axis = result.axis
    base = result.baseline()
    base_ipc = _mean(r.ipc for r in base) if base else None
    headers = ["Scenario", axis.header, "IPC", "dIPC"]
    headers += [name for name, _cell in axis.columns]
    table: List[List[str]] = []
    for label, value, runs in result.rows:
        shown = value or "(none)"
        if not runs:
            table.append([label, shown, "FAILED"]
                         + ["-"] * (len(headers) - 3))
            continue
        ipc = _mean(r.ipc for r in runs)
        table.append(
            [label, shown, f"{ipc:.4f}",
             f"{(ipc / base_ipc - 1) * 100:+.1f}%" if base_ipc else "n/a"]
            + [cell(runs, base) for _name, cell in axis.columns]
        )
    text = render_table(headers, table,
                        title=axis.title.format(model=result.model_name))
    manifest = result.report.manifest()
    if manifest:
        text += "\n\n" + manifest
    return text
