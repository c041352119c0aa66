"""Pareto dominance over explorer metrics.

The frontier routines are generic: they work on any objects whose
objective values are reachable by attribute name, with each
:class:`Objective` declaring whether it is minimized or maximized.
Internally every objective is folded into minimization form (maximized
values are negated), so dominance is the usual component-wise ``<=``
with at least one strict ``<``.

Determinism contract: the frontier and the rank list depend only on
the *set* of evaluated items -- duplicates are collapsed and the output
order is a canonical sort -- so permuting or repeating the explorer's
evaluation order can never change what it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Objective:
    """One axis of the optimization: an attribute and its direction."""

    name: str
    maximize: bool = False


#: The explorer's axes: energy-delay-squared, performance, energy and
#: link metal area.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("ed2"),
    Objective("ipc", maximize=True),
    Objective("energy"),
    Objective("area_mm2"),
)


def objective_vector(item: T,
                     objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                     ) -> Tuple[float, ...]:
    """The item's objectives in minimization form (maximized negated)."""
    values = []
    for objective in objectives:
        value = float(getattr(item, objective.name))
        values.append(-value if objective.maximize else value)
    return tuple(values)


def dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """Does minimization vector ``u`` Pareto-dominate ``v``?

    True when ``u`` is no worse on every objective and strictly better
    on at least one.  Irreflexive and transitive; equal vectors never
    dominate each other.
    """
    if len(u) != len(v):
        raise ValueError("objective vectors must have equal length")
    return all(a <= b for a, b in zip(u, v, strict=True)) \
        and any(a < b for a, b in zip(u, v, strict=True))


def _canonical(items: Sequence[T], objectives: Sequence[Objective],
               sort_key: Optional[Callable[[T], object]],
               ) -> List[Tuple[Tuple[float, ...], T]]:
    """Deduplicated (vector, item) pairs in canonical order."""
    key = sort_key if sort_key is not None else repr
    unique = list(dict.fromkeys(items))
    unique.sort(key=key)
    return [(objective_vector(item, objectives), item) for item in unique]


def pareto_frontier(items: Sequence[T],
                    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                    sort_key: Optional[Callable[[T], object]] = None,
                    ) -> Tuple[T, ...]:
    """The non-dominated subset of ``items``, canonically ordered.

    Duplicate items collapse to one; order of the input is irrelevant.
    ``sort_key`` fixes the output order (defaults to ``repr``, which is
    total for the frozen metric dataclasses the explorer passes in).
    """
    entries = _canonical(items, objectives, sort_key)
    return tuple(
        item for vector, item in entries
        if not any(dominates(other, vector) for other, _ in entries)
    )


def dominance_ranks(items: Sequence[T],
                    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                    sort_key: Optional[Callable[[T], object]] = None,
                    ) -> Tuple[Tuple[int, T], ...]:
    """Non-dominated sorting: rank 0 is the frontier, rank 1 the
    frontier of what remains once rank 0 is peeled off, and so on.

    Returns ``(rank, item)`` pairs, ranks ascending and items in
    canonical order within a rank.
    """
    remaining = _canonical(items, objectives, sort_key)
    ranked: List[Tuple[int, T]] = []
    rank = 0
    while remaining:
        front = [
            (vector, item) for vector, item in remaining
            if not any(dominates(other, vector)
                       for other, _ in remaining)
        ]
        ranked.extend((rank, item) for _, item in front)
        kept = {id(item) for _, item in front}
        remaining = [entry for entry in remaining
                     if id(entry[1]) not in kept]
        rank += 1
    return tuple(ranked)
