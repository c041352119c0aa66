"""Scalar claims from the paper's prose (Sections 1, 4 and 5.3).

Each claim is regenerated as a measured percentage next to the paper's
number:

* doubling inter-cluster latency costs ~12% IPC (Section 1);
* the L-Wire layer gains 4.2% on the 4-cluster baseline (Figure 3),
  7.1% with doubled wire latencies, and 7.4% on 16 clusters (5.3);
* moving one thread from 4 to 16 clusters gains ~17% IPC (5.3);
* ~14% of register traffic is narrow (0..1023) (5.3);
* the width predictor covers ~95% of narrow results with ~2% false
  narrows (Section 4);
* fewer than 9% of loads hit a false LS-bit alias (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .paperdata import PAPER_CLAIMS
from .runner import ExperimentPlan, ExperimentRunner, run_variants


@dataclass(frozen=True)
class ClaimResult:
    name: str
    description: str
    measured: float
    paper: float
    unit: str = "%"

    def render(self) -> str:
        return (f"{self.description}\n"
                f"    measured {self.measured:+.1f}{self.unit}   "
                f"paper {self.paper:+.1f}{self.unit}")


#: The six sweeps the claims compare: (model, clusters, latency scale).
SWEEPS = {
    "base4": ("I", 4, 1.0),
    "slow4": ("I", 4, 2.0),
    "vii4": ("VII", 4, 1.0),
    "vii4_slow": ("VII", 4, 2.0),
    "base16": ("I", 16, 1.0),
    "vii16": ("VII", 16, 1.0),
}


def run_claims(runner: ExperimentRunner, base: ExperimentPlan,
               benchmarks: Optional[Sequence[str]] = None
               ) -> Tuple[ClaimResult, ...]:
    """Regenerate every scalar claim.

    The six :data:`SWEEPS` vary ``base``'s model, cluster count and
    latency scale; the window and seed come from ``base``.  All six
    are one :func:`run_variants` batch.
    """
    results = run_variants(
        runner, base,
        {key: dict(model_name=name, num_clusters=clusters,
                   latency_scale=scale)
         for key, (name, clusters, scale) in SWEEPS.items()},
        benchmarks,
    )
    base4 = results["base4"]
    slow4 = results["slow4"]
    vii4 = results["vii4"]
    vii4_slow = results["vii4_slow"]
    base16 = results["base16"]
    vii16 = results["vii16"]

    claims: List[ClaimResult] = [
        ClaimResult(
            "latency_doubling_ipc_loss",
            "Section 1: IPC change when inter-cluster latency doubles "
            "(4 clusters, Model I)",
            (slow4.am_ipc / base4.am_ipc - 1) * 100,
            PAPER_CLAIMS["latency_doubling_ipc_loss"],
        ),
        ClaimResult(
            "figure3_lwire_gain",
            "Figure 3: AM IPC gain from adding an L-Wire layer "
            "(Model VII vs I, 4 clusters)",
            (vii4.am_ipc / base4.am_ipc - 1) * 100,
            PAPER_CLAIMS["figure3_lwire_gain"],
        ),
        ClaimResult(
            "lwire_gain_2x_latency",
            "Section 5.3: same L-Wire gain with doubled wire latencies",
            (vii4_slow.am_ipc / slow4.am_ipc - 1) * 100,
            PAPER_CLAIMS["lwire_gain_2x_latency"],
        ),
        ClaimResult(
            "scaling_4_to_16",
            "Section 5.3: single-thread IPC gain, 4 -> 16 clusters "
            "(Model I)",
            (base16.am_ipc / base4.am_ipc - 1) * 100,
            PAPER_CLAIMS["scaling_4_to_16"],
        ),
        ClaimResult(
            "lwire_gain_16cl",
            "Section 5.3: L-Wire layer gain on the 16-cluster system",
            (vii16.am_ipc / base16.am_ipc - 1) * 100,
            PAPER_CLAIMS["lwire_gain_16cl"],
        ),
    ]

    # Stream statistics, aggregated over the heterogeneous runs.
    operand = narrow = 0.0
    false_deps = disamb = 0.0
    coverage = false_narrow = 0.0
    counted = 0
    for run in vii4.runs:
        extra = run.extra_stats()
        operand += extra["operand_transfers"]
        narrow += extra["operand_narrow"]
        false_deps += extra["false_dependences"]
        disamb += extra["loads_disambiguated"]
        coverage += extra["narrow_coverage"]
        false_narrow += extra["narrow_false_rate"]
        counted += 1
    claims.extend([
        ClaimResult(
            "narrow_register_traffic",
            "Section 5.3: share of inter-cluster register traffic that "
            "is narrow (0..1023)",
            100 * narrow / max(1.0, operand),
            PAPER_CLAIMS["narrow_register_traffic"],
        ),
        ClaimResult(
            "narrow_predictor_coverage",
            "Section 4: narrow results identified by the width predictor",
            100 * coverage / counted,
            PAPER_CLAIMS["narrow_predictor_coverage"],
        ),
        ClaimResult(
            "narrow_predictor_false",
            "Section 4: predicted-narrow results that are actually wide",
            100 * false_narrow / counted,
            PAPER_CLAIMS["narrow_predictor_false"],
        ),
        ClaimResult(
            "false_dependence_rate",
            "Section 4: loads hitting a false LS-bit alias "
            "(paper bound: <9%)",
            100 * false_deps / max(1.0, disamb),
            PAPER_CLAIMS["false_dependence_bound"],
        ),
    ])
    return tuple(claims)


def render_claims(claims: Sequence[ClaimResult]) -> str:
    lines = ["Scalar claims (measured vs. paper):", ""]
    for claim in claims:
        lines.append(claim.render())
        lines.append("")
    return "\n".join(lines)
