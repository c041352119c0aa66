"""Shared fixtures for the benchmark harness.

Window sizes come from the environment:

* ``REPRO_INSTRUCTIONS`` -- measured instructions per benchmark
  (default 12000; the paper used 100 M on native simulators).
* ``REPRO_WARMUP`` -- warmup instructions (default 3000).
* ``REPRO_BENCH_SUBSET`` -- optional comma-separated benchmark subset
  for quick runs (e.g. "gzip,mesa,swim").

Results are cached under ``.repro_cache/`` (see repro.harness.runner),
so re-running a bench after the first full pass is cheap.  Rendered
tables land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import ExperimentPlan, ExperimentRunner
from repro.wires import SUPPORTED_NODES
from repro.workloads.spec2k import BENCHMARK_NAMES

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--node", type=int, default=45,
        help="technology node in nm for node-aware benches "
             f"(one of {', '.join(str(n) for n in SUPPORTED_NODES)}; "
             f"default: 45)",
    )


@pytest.fixture(scope="session")
def node(request) -> int:
    value = request.config.getoption("--node")
    if value not in SUPPORTED_NODES:
        raise pytest.UsageError(
            f"--node {value} is not a supported technology node; "
            f"choose from {', '.join(str(n) for n in SUPPORTED_NODES)}"
        )
    return value


@pytest.fixture(scope="session")
def base() -> ExperimentPlan:
    """The plan every sweep varies; its window is the environment's."""
    return ExperimentPlan("I", "gzip")


@pytest.fixture(scope="session")
def bench_suite() -> tuple:
    subset = os.environ.get("REPRO_BENCH_SUBSET", "")
    if subset:
        names = tuple(s.strip() for s in subset.split(",") if s.strip())
        unknown = set(names) - set(BENCHMARK_NAMES)
        if unknown:
            raise ValueError(f"unknown benchmarks in subset: {unknown}")
        return names
    return BENCHMARK_NAMES


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner(verbose=True)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered artifact and save it under results/."""
    print("\n" + text + "\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")

