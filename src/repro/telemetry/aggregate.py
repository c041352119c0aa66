"""Trace aggregation: per-plane/per-link utilization and decision reasons.

Collapses a cycle-level event stream into the tables a sweep wants to
print: how many transfers each wire-selection rule claimed (the
paper's Section 4 policy, reason by reason), how many bits each
(link, plane) pair carried, and how much fault machinery fired.  Works
from the events alone so it can aggregate traces loaded back from disk
as easily as live ring buffers.

Formatting is local (plain aligned columns) -- importing the harness
formatting helpers from here would tie the simulator-scope telemetry
package to the harness package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .events import EventKind, TraceEvent


@dataclass(frozen=True)
class TraceSummary:
    """Aggregated view of one simulator trace."""

    #: (reason, transfers) for every wire-selection reason seen.
    selection_reasons: Tuple[Tuple[str, int], ...]
    #: (channel, plane, segments, bits) per routed link/plane pair.
    link_traffic: Tuple[Tuple[str, str, int, int], ...]
    #: (event kind, count) for every fault-category event.
    fault_counts: Tuple[Tuple[str, int], ...]
    #: (hit level, count) of memory-hierarchy accesses.
    cache_levels: Tuple[Tuple[str, int], ...]
    #: Overflow events: load-balance diverts + steering spills.
    lb_diverts: int
    steer_overflows: int
    total_events: int


def summarize(events: Iterable[TraceEvent]) -> TraceSummary:
    """Aggregate an event stream (sorted, deterministic output)."""
    reasons: Dict[str, int] = {}
    links: Dict[Tuple[str, str], List[int]] = {}
    faults: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    lb_diverts = 0
    steer_overflows = 0
    total = 0
    for event in events:
        total += 1
        kind = event.kind
        if kind is EventKind.WIRE_SELECTED:
            reason = str(event.attr("reason", "unknown"))
            reasons[reason] = reasons.get(reason, 0) + 1
        elif kind is EventKind.TRANSFER_ROUTED:
            key = (str(event.attr("channel", "?")),
                   str(event.attr("plane", "?")))
            entry = links.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += int(event.attr("bits", 0))  # type: ignore[arg-type]
        elif kind is EventKind.LB_DIVERT:
            lb_diverts += 1
        elif kind is EventKind.STEER_OVERFLOW:
            steer_overflows += 1
        elif kind is EventKind.CACHE_ACCESS:
            level = str(event.attr("level", "?"))
            cache[level] = cache.get(level, 0) + 1
        elif event.category == "fault":
            name = kind.value
            faults[name] = faults.get(name, 0) + 1
    return TraceSummary(
        selection_reasons=tuple(sorted(reasons.items(),
                                       key=lambda kv: (-kv[1], kv[0]))),
        link_traffic=tuple(
            (channel, plane, segments, bits)
            for (channel, plane), (segments, bits)
            in sorted(links.items(), key=lambda kv: (-kv[1][1], kv[0]))
        ),
        fault_counts=tuple(sorted(faults.items())),
        cache_levels=tuple(sorted(cache.items())),
        lb_diverts=lb_diverts,
        steer_overflows=steer_overflows,
        total_events=total,
    )


def _render_columns(headers: Sequence[str],
                    rows: Sequence[Sequence[object]]) -> List[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return lines


def render_summary(summary: TraceSummary,
                   cycles: int = 0) -> str:
    """The per-plane/per-link + decision-reason breakdown tables."""
    lines: List[str] = [
        f"trace summary: {summary.total_events} events"
        + (f" over {cycles} measured cycles" if cycles else "")
    ]
    if summary.selection_reasons:
        total = sum(n for _, n in summary.selection_reasons)
        lines.append("")
        lines.append("wire-selection decisions by reason:")
        lines.extend(_render_columns(
            ["reason", "transfers", "share"],
            [[reason, count, f"{count / total:.1%}"]
             for reason, count in summary.selection_reasons],
        ))
    if summary.link_traffic:
        lines.append("")
        lines.append("traffic by link and plane:")
        lines.extend(_render_columns(
            ["channel", "plane", "segments", "bits"],
            [list(row) for row in summary.link_traffic],
        ))
    lines.append("")
    lines.append(
        f"overflow: {summary.lb_diverts} load-balance divert(s), "
        f"{summary.steer_overflows} steering spill(s)"
    )
    if summary.cache_levels:
        levels = ", ".join(f"{level}={count}"
                           for level, count in summary.cache_levels)
        lines.append(f"cache accesses by level: {levels}")
    if summary.fault_counts:
        faults = ", ".join(f"{name}={count}"
                           for name, count in summary.fault_counts)
        lines.append(f"fault events: {faults}")
    return "\n".join(lines)

