"""Rendering explorer results: frontier tables and CSV export."""

from __future__ import annotations

import csv
import io
from typing import Dict, Tuple

from ..core.metrics import DYNAMIC_SHARE, LEAKAGE_SHARE
from .pareto import DEFAULT_OBJECTIVES, dominance_ranks
from .search import ExploreResult
from .space import PointMetrics


def leakage_share(metric: PointMetrics) -> float:
    """Leakage's share of the point's interconnect energy, in [0, 1].

    Guarded against the zero-traffic case: a point whose planes carried
    no traffic (or whose baseline normalization collapsed both energy
    components to zero) reports a 0.0 share instead of raising
    ZeroDivisionError.
    """
    leak = LEAKAGE_SHARE * metric.rel_leakage
    total = DYNAMIC_SHARE * metric.rel_dynamic + leak
    return leak / total if total else 0.0


_COLUMNS = (
    ("design point", lambda m: m.point.encode()),
    ("node", lambda m: f"{m.point.node}nm"),
    ("IPC", lambda m: f"{m.ipc:.3f}"),
    ("rel delay", lambda m: f"{m.rel_delay:.3f}"),
    ("energy", lambda m: f"{m.energy:.1f}"),
    ("ED2", lambda m: f"{m.ed2:.1f}"),
    ("area mm2", lambda m: f"{m.area_mm2:.3f}"),
    ("gating", lambda m: m.point.gating or "always-on"),
    ("leak share", lambda m: f"{leakage_share(m):.3f}"),
)


def _ranks(result: ExploreResult) -> Dict[PointMetrics, int]:
    return {
        metric: rank
        for rank, metric in dominance_ranks(
            result.evaluated, DEFAULT_OBJECTIVES,
            sort_key=lambda m: m.point.encode(),
        )
    }


def frontier_table(result: ExploreResult) -> str:
    """The Pareto frontier as an aligned text table."""
    if not result.frontier:
        return "explore: no design points were evaluated successfully"
    headers = tuple(name for name, _ in _COLUMNS)
    rows = [
        tuple(render(metric) for _, render in _COLUMNS)
        for metric in result.frontier
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)
        ))
    lines.append("")
    lines.append(result.render_summary())
    if result.failures:
        lines.append(f"warning: {len(result.failures)} run(s) failed; "
                     f"their points are missing from the frontier")
    return "\n".join(lines)


#: CSV column order (kept stable: downstream notebooks parse this --
#: new columns are appended at the end only).
CSV_FIELDS: Tuple[str, ...] = (
    "design_point", "node", "topology", "mix", "ipc", "rel_delay",
    "rel_dynamic", "rel_leakage", "energy", "ed2", "area_mm2",
    "dominance_rank", "on_frontier", "gating", "leakage_share",
)


def to_csv(result: ExploreResult) -> str:
    """Every evaluated point as CSV, dominance-ranked."""
    ranks = _ranks(result)
    frontier = set(result.frontier)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(CSV_FIELDS),
                            lineterminator="\n")
    writer.writeheader()
    for metric in result.evaluated:
        point = metric.point
        writer.writerow({
            "design_point": point.encode(),
            "node": point.node,
            "topology": point.topology,
            "mix": "+".join(f"{value}{count}"
                            for value, count in point.wires),
            "ipc": f"{metric.ipc:.6f}",
            "rel_delay": f"{metric.rel_delay:.6f}",
            "rel_dynamic": f"{metric.rel_dynamic:.6f}",
            "rel_leakage": f"{metric.rel_leakage:.6f}",
            "energy": f"{metric.energy:.6f}",
            "ed2": f"{metric.ed2:.6f}",
            "area_mm2": f"{metric.area_mm2:.6f}",
            "dominance_rank": ranks[metric],
            "on_frontier": int(metric in frontier),
            "gating": point.gating,
            "leakage_share": f"{leakage_share(metric):.6f}",
        })
    return buffer.getvalue()
