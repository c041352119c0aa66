"""SIM107 -- asyncio task and cancellation hygiene.

The sweep service (``src/repro/service/``) brought the first asyncio
into the codebase, and with it two silent-failure modes the runtime
does not diagnose:

* a task created with ``asyncio.create_task(...)`` whose return value
  is discarded is only weakly referenced by the event loop -- the GC
  may collect it *mid-flight*, and its exceptions vanish with it.  The
  service holds the one task it creates (``SweepService._dispatcher``);
  everything else must keep a reference too.
* a handler that catches ``asyncio.CancelledError`` without
  re-raising swallows cancellation: ``await task`` in ``stop()`` then
  never returns the control flow the loop expects, and graceful
  shutdown wedges.  Catch it only to clean up, then ``raise``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding
from ..registry import register
from .exceptions import _reraises

_CANCELLED = "CancelledError"


def _is_create_task(call: ast.Call) -> bool:
    """``asyncio.create_task(...)`` / ``<loop>.create_task(...)``."""
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr == "create_task"


def _names_cancelled(node: ast.AST) -> bool:
    """Does a handler's type expression mention CancelledError?"""
    if isinstance(node, ast.Name):
        return node.id == _CANCELLED
    if isinstance(node, ast.Attribute):
        return node.attr == _CANCELLED
    if isinstance(node, ast.Tuple):
        return any(_names_cancelled(element) for element in node.elts)
    return False


@register("SIM107",
          "keep asyncio task references; never swallow cancellation")
def check_async_hygiene(ctx: FileContext) -> Iterator[Finding]:
    """Two asyncio hazards with no runtime diagnostic.

    A fire-and-forget ``create_task`` call can be garbage-collected
    while still running; a swallowed ``CancelledError`` turns graceful
    shutdown into a wedge.  Deliberate swallows at a shutdown boundary
    suppress inline with a rationale.
    """
    for node in ctx.nodes:
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _is_create_task(node.value)):
            yield Finding(
                code="SIM107",
                message=(
                    "create_task() result discarded; the event loop "
                    "holds tasks only weakly, so this task can be "
                    "garbage-collected mid-flight -- keep the "
                    "reference in a tracked set until done"
                ),
                path=ctx.rel,
                line=node.lineno,
                col=node.col_offset,
            )
        elif (isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and _names_cancelled(node.type)
                and not _reraises(node)):
            yield Finding(
                code="SIM107",
                message=(
                    "CancelledError caught without re-raising; "
                    "swallowing cancellation wedges graceful "
                    "shutdown -- clean up, then 'raise' (or suppress "
                    "inline with a rationale at a top-level shutdown "
                    "boundary)"
                ),
                path=ctx.rel,
                line=node.lineno,
                col=node.col_offset,
            )
