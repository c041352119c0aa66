"""Figure 3: per-benchmark IPC, baseline vs. +L-Wire layer (4 clusters).

The paper's bars compare the baseline (one metal layer of B-Wires,
Model I) against a machine with an added layer of L-Wires (Model VII's
composition) carrying narrow operands, LS address bits and mispredict
signals.  The headline number is the arithmetic-mean IPC gain: 4.2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .formatting import render_bar_chart, render_table
from .paperdata import PAPER_CLAIMS
from .runner import ExperimentPlan, ExperimentRunner, run_variants

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


def run_figure3(runner: ExperimentRunner, base: ExperimentPlan,
                benchmarks: Optional[Sequence[str]] = None
                ) -> Figure3Result:
    """Regenerate Figure 3's data: ``base`` as Model I and as Model VII,
    in one :func:`run_variants` batch."""
    results = run_variants(
        runner, base,
        {name: dict(model_name=name)
         for name in (BASELINE_MODEL, LWIRE_MODEL)},
        benchmarks,
    )
    baseline = results[BASELINE_MODEL].runs
    return Figure3Result(
        benchmarks=tuple(run.benchmark for run in baseline),
        baseline_ipc=tuple(run.ipc for run in baseline),
        lwire_ipc=tuple(run.ipc for run in results[LWIRE_MODEL].runs),
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
