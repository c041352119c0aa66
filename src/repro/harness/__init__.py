"""Experiment harness: regenerates every table and figure of the paper.

The package names only what every run loads: the cached runner and the
wall-clock profiler.  The paper's drivers and renderers are imported
from their own modules (``repro.harness.table3``, ``.formatting``, ...),
so a plain run never compiles them.
"""

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

__all__ = [
    "NULL_PROFILER",
    "HarnessProfiler",
    "CACHE_VERSION",
    "REPORT_SCHEMA_VERSION",
    "ExperimentPlan",
    "ExperimentRunner",
    "ResultCache",
    "RunFailure",
    "SweepError",
    "SweepReport",
    "SweepSummary",
    "run_variants",
    "simulate_plan",
]
