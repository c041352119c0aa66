"""Experiment harness: regenerates every table and figure of the paper."""

from .axissweep import (
    FAULT_AXIS,
    GATING_AXIS,
    AxisSweepResult,
    SweepAxis,
    render_axis_sweep,
    run_axis_sweep,
)
from .claims import ClaimResult, render_claims, run_claims
from .figure3 import Figure3Result, render_figure3, run_figure3
from .formatting import (
    percent_delta,
    render_bar_chart,
    render_table,
    shape_check,
)
from .backoff import DecorrelatedJitter, backoff_seed, jitter_delays
from .paperdata import PAPER_CLAIMS, PAPER_TABLE3, PAPER_TABLE4
from .profiling import NULL_PROFILER, HarnessProfiler
from .runner import (
    CACHE_VERSION,
    REPORT_SCHEMA_VERSION,
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    RunFailure,
    SweepError,
    SweepReport,
    SweepSummary,
    run_variants,
    simulate_plan,
)
from .table3 import TableResult, render_table3, run_table3, shape_summary
from .table4 import render_table4, run_table4

__all__ = [
    "NULL_PROFILER",
    "HarnessProfiler",
    "CACHE_VERSION",
    "REPORT_SCHEMA_VERSION",
    "DecorrelatedJitter",
    "backoff_seed",
    "jitter_delays",
    "ExperimentPlan",
    "ExperimentRunner",
    "ResultCache",
    "RunFailure",
    "SweepError",
    "SweepReport",
    "SweepSummary",
    "run_variants",
    "simulate_plan",
    "FAULT_AXIS",
    "GATING_AXIS",
    "AxisSweepResult",
    "SweepAxis",
    "render_axis_sweep",
    "run_axis_sweep",
    "percent_delta",
    "render_bar_chart",
    "render_table",
    "shape_check",
    "PAPER_CLAIMS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "Figure3Result",
    "render_figure3",
    "run_figure3",
    "TableResult",
    "render_table3",
    "run_table3",
    "shape_summary",
    "render_table4",
    "run_table4",
    "ClaimResult",
    "render_claims",
    "run_claims",
]
