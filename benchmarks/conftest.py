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

from repro.core.metrics import ModelResult
from repro.core.simulation import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
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
def instructions() -> int:
    return DEFAULT_INSTRUCTIONS


@pytest.fixture(scope="session")
def warmup() -> int:
    return DEFAULT_WARMUP


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


def run_variants(runner: ExperimentRunner, variants: dict, suite,
                 **shared) -> dict:
    """One :class:`ModelResult` per variant, from one ``run_many`` batch.

    ``variants`` maps a key to the plan fields of that variant
    (``model_name`` at least); ``shared`` fields apply to every plan.
    Each result's runs follow ``suite``, as ``run_table3`` assembles
    them.  One batch lets the runner run every variant of a benchmark
    off one annotated trace, where a call per variant would re-annotate
    every benchmark.
    """
    plans = {
        key: [ExperimentPlan(benchmark=name, **shared, **own)
              for name in suite]
        for key, own in variants.items()
    }
    runs = runner.run_many([plan for per in plans.values() for plan in per])
    return {
        key: ModelResult(model=per[0].model_name,
                         runs=tuple(runs[plan] for plan in per))
        for key, per in plans.items()
    }
