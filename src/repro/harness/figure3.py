"""Figure 3: per-benchmark IPC, baseline vs. +L-Wire layer (4 clusters).

The paper's bars compare the baseline (one metal layer of B-Wires,
Model I) against a machine with an added layer of L-Wires (Model VII's
composition) carrying narrow operands, LS address bits and mispredict
signals.  The headline number is the arithmetic-mean IPC gain: 4.2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.simulation import DEFAULT_INSTRUCTIONS, DEFAULT_SEED, DEFAULT_WARMUP
from ..workloads.spec2k import BENCHMARK_NAMES
from .formatting import render_bar_chart, render_table
from .paperdata import PAPER_CLAIMS
from .runner import ExperimentPlan, ExperimentRunner

BASELINE_MODEL = "I"
LWIRE_MODEL = "VII"


@dataclass(frozen=True)
class Figure3Result:
    benchmarks: Tuple[str, ...]
    baseline_ipc: Tuple[float, ...]
    lwire_ipc: Tuple[float, ...]

    @property
    def baseline_am(self) -> float:
        return sum(self.baseline_ipc) / len(self.baseline_ipc)

    @property
    def lwire_am(self) -> float:
        return sum(self.lwire_ipc) / len(self.lwire_ipc)

    @property
    def am_gain_percent(self) -> float:
        return (self.lwire_am / self.baseline_am - 1) * 100

    def per_benchmark(self) -> Dict[str, Tuple[float, float]]:
        return {
            name: (b, l)
            for name, b, l in zip(self.benchmarks, self.baseline_ipc,
                                  self.lwire_ipc)
        }


def run_figure3(runner: Optional[ExperimentRunner] = None,
                benchmarks: Optional[Sequence[str]] = None,
                instructions: int = DEFAULT_INSTRUCTIONS,
                warmup: int = DEFAULT_WARMUP,
                workers: Optional[int] = None,
                seed: int = DEFAULT_SEED) -> Figure3Result:
    """Regenerate Figure 3's data (both models in one parallel batch)."""
    runner = runner or ExperimentRunner()
    names = tuple(benchmarks or BENCHMARK_NAMES)

    def plan(model_name: str, bench: str) -> ExperimentPlan:
        return ExperimentPlan(model_name=model_name, benchmark=bench,
                              instructions=instructions, warmup=warmup,
                              seed=seed)

    runs = runner.run_many(
        [plan(m, n) for m in (BASELINE_MODEL, LWIRE_MODEL) for n in names],
        workers=workers,
    )
    return Figure3Result(
        benchmarks=names,
        baseline_ipc=tuple(runs[plan(BASELINE_MODEL, n)].ipc
                           for n in names),
        lwire_ipc=tuple(runs[plan(LWIRE_MODEL, n)].ipc for n in names),
    )


def render_figure3(result: Figure3Result) -> str:
    """ASCII rendition of the figure plus the headline comparison."""
    chart = render_bar_chart(
        list(result.benchmarks),
        [list(result.baseline_ipc), list(result.lwire_ipc)],
        ["Baseline: 144 B-Wires (Model I)",
         "Low-latency optimizations: +36 L-Wires (Model VII)"],
        title="Figure 3: IPCs, 4-cluster partitioned architecture",
    )
    table = render_table(
        ["", "Baseline AM", "+L-Wires AM", "gain"],
        [["IPC", f"{result.baseline_am:.3f}", f"{result.lwire_am:.3f}",
          f"{result.am_gain_percent:+.1f}%"]],
    )
    paper = PAPER_CLAIMS["figure3_lwire_gain"]
    footer = (f"paper: +{paper:.1f}% AM IPC from the L-Wire layer; "
              f"measured {result.am_gain_percent:+.1f}%")
    return "\n\n".join([chart, table, footer])
