"""SIM3xx -- exception hygiene.

A sweep over hundreds of configurations must distinguish "this
configuration is invalid" (a :class:`ConfigError` the caller can
report) from "the simulator is broken" (anything else, which must
crash loudly).  Broad handlers that swallow both are only legitimate
at *crash-isolation boundaries* -- the worker wrapper in
``harness/runner.py`` that converts arbitrary failures into structured
:class:`RunFailure` records -- and those boundaries must be annotated
with an explicit ``# simlint: disable=SIM302`` plus a rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding
from ..registry import register

_BROAD = ("Exception", "BaseException")


def _names_in_handler_type(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Tuple):
        for element in node.elts:
            if isinstance(element, ast.Name):
                yield element.id


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body re-raises at its top level.

    ``except BaseException: <cleanup>; raise`` is the sanctioned
    pattern for undo-then-propagate (e.g. removing a temp file after a
    failed atomic cache publish) -- nothing is swallowed.
    """
    return any(
        isinstance(stmt, ast.Raise) and stmt.exc is None
        for stmt in handler.body
    )


@register("SIM301", "no bare except clauses")
def check_bare_except(ctx: FileContext) -> Iterator[Finding]:
    """``except:`` also catches KeyboardInterrupt and SystemExit."""
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                code="SIM301",
                message=("bare 'except:'; name the exceptions, or use "
                         "'except Exception' at an annotated "
                         "crash-isolation boundary"),
                path=ctx.rel,
                line=node.lineno,
                col=node.col_offset,
            )


@register("SIM302",
          "broad except only at annotated crash-isolation boundaries")
def check_broad_except(ctx: FileContext) -> Iterator[Finding]:
    """Swallowing ``Exception`` hides simulator bugs as bad results.

    Handlers that re-raise (cleanup-then-propagate) are exempt; true
    isolation boundaries suppress this rule inline with a rationale.
    """
    for node in ctx.nodes:
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        if _reraises(node):
            continue
        for name in _names_in_handler_type(node.type):
            if name in _BROAD:
                yield Finding(
                    code="SIM302",
                    message=(
                        f"broad 'except {name}' swallows simulator "
                        f"bugs; catch specific exceptions, or mark a "
                        f"deliberate crash-isolation boundary with "
                        f"'# simlint: disable=SIM302' and a rationale"
                    ),
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )


@register("SIM303",
          "raise ConfigError, not KeyError, for configuration lookups")
def check_raise_keyerror(ctx: FileContext) -> Iterator[Finding]:
    """``KeyError`` reads as an internal bug in sweep manifests.

    Simulator code that rejects an unknown model/benchmark/plane
    should raise :class:`ConfigError` so failure manifests say *what
    was misconfigured*.  Mapping-style accessors that deliberately
    mimic ``dict`` lookup semantics suppress this inline.
    """
    if not ctx.in_src:
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = ""
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name == "KeyError":
            yield Finding(
                code="SIM303",
                message=("raising KeyError from simulator code; raise "
                         "ConfigError (repro.interconnect.errors) so "
                         "sweep failure manifests name the bad "
                         "configuration"),
                path=ctx.rel,
                line=node.lineno,
                col=node.col_offset,
            )
