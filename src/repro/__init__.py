"""repro -- reproduction of "Microarchitectural Wire Management for
Performance and Power in Partitioned Architectures" (HPCA-11, 2005).

The library builds, from scratch, everything the paper's evaluation rests
on: an RC/transmission-line wire model (Section 2), a heterogeneous
inter-cluster interconnect with per-transfer wire selection (Sections 3
and 4), a dynamically scheduled clustered processor with a centralized
data cache (Section 4), synthetic SPEC2k-like workloads, and a benchmark
harness regenerating every table and figure of Section 5.

Quick start::

    from repro import model, simulate_benchmark

    run = simulate_benchmark(model("VII").config, "gcc",
                             instructions=10_000, warmup=2_000)
    print(run.ipc)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

# Registers the old module names of the folded event-driven classes.
from . import _folded  # noqa: F401
from ._version import package_version
from .core import (
    ClusteredProcessor,
    InterconnectConfig,
    InterconnectModel,
    ModelResult,
    ProcessorConfig,
    RelativeMetrics,
    all_models,
    baseline_interconnect,
    model,
    relative_metrics,
    simulate_benchmark,
    wire_counts,
)
from .interconnect import (
    LinkComposition,
    Network,
    PolicyFlags,
    Transfer,
    TransferKind,
)
from .wires import WireClass, WireSpec, table2_rows
from .workloads import BENCHMARK_NAMES, TraceGenerator, WorkloadProfile, profile

__version__ = package_version()

__all__ = [
    "ClusteredProcessor",
    "InterconnectConfig",
    "InterconnectModel",
    "ModelResult",
    "ProcessorConfig",
    "RelativeMetrics",
    "all_models",
    "baseline_interconnect",
    "model",
    "relative_metrics",
    "simulate_benchmark",
    "wire_counts",
    "LinkComposition",
    "Network",
    "PolicyFlags",
    "Transfer",
    "TransferKind",
    "WireClass",
    "WireSpec",
    "table2_rows",
    "BENCHMARK_NAMES",
    "TraceGenerator",
    "WorkloadProfile",
    "profile",
    "__version__",
]
