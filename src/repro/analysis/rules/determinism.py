"""SIM104 -- output ordering.

A report, rendered table or digest must not depend on the order in
which code happened to fill a dict.  No general run-time check sees
that: the order is stable within a process and across processes, so
the corpus and the cross-process test (``tests/golden/``) stay green
until a refactor of the *producing* code reorders the output.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding
from ..registry import register
from .common import iteration_targets

#: Function names whose results are externally visible orderings:
#: reports, rendered tables, serialized payloads, hashes/cache keys.
_OUTPUT_CONTEXT = (
    "report", "render", "describe", "summary", "manifest", "dump",
    "format", "digest", "canonical", "serializ", "fingerprint",
    "cache_key", "to_json", "write_", "emit",
)


@register("SIM104",
          "no unsorted dict iteration feeding reports or hashes")
def check_dict_iteration_in_output(ctx: FileContext) -> Iterator[Finding]:
    """Dict order is insertion order -- an implementation detail.

    Inside reporting/serialization/hashing functions, iterating
    ``.items()``/``.keys()``/``.values()`` unsorted ties the *output*
    to whatever order code happened to populate the dict (the
    ``utilization_report`` ordering bug).  Sort explicitly so output
    survives refactors of the producing code.
    """
    for iter_node, anchor, _comp in iteration_targets(ctx.nodes):
        if not (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in ("items", "keys", "values")
                and not iter_node.args and not iter_node.keywords):
            continue
        func = ctx.enclosing_function(anchor)
        if func is None:
            continue
        name = func.name.lower()
        if not any(marker in name for marker in _OUTPUT_CONTEXT):
            continue
        yield Finding(
            code="SIM104",
            message=(f"unsorted .{iter_node.func.attr}() iteration "
                     f"inside {func.name}(); output ordering will "
                     f"depend on dict insertion order -- wrap in "
                     f"sorted(...)"),
            path=ctx.rel, line=anchor.lineno, col=anchor.col_offset,
        )
