"""SIM4xx -- model hygiene.

Spec/plan/result objects flow into cache keys, dict keys and
cross-process pickles; mutability there corrupts silently.  Mutable
default arguments alias state across calls.  Float equality on
computed metrics turns last-bit noise into flipped comparisons.
"""

from __future__ import annotations

import ast
import re
from itertools import pairwise
from typing import Iterator, Optional

from ..context import FileContext
from ..findings import Finding
from ..registry import register

#: Class-name suffixes that mark value/spec types which must be
#: immutable.  Mutable *worker* types (Transfer, Segment, counters)
#: deliberately fall outside this pattern.
_VALUE_SUFFIX = re.compile(
    r"(Spec|Plan|Report|Summary|Config|Result|Metrics|Run|Failure|"
    r"Scenario|Row|Profile|Kill)$"
)


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = ""
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if (keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True):
            return True
    return False


@register("SIM401", "spec/plan/result dataclasses must be frozen")
def check_frozen_specs(ctx: FileContext) -> Iterator[Finding]:
    """Value-type dataclasses feed hashes and cache keys.

    A mutable plan/spec can be altered after its cache key was
    computed, detaching the stored result from what actually ran.
    """
    if not ctx.in_src:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _VALUE_SUFFIX.search(node.name):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None or _is_frozen(decorator):
            continue
        # Anchor at the decorator: that is where frozen=True (or the
        # suppression) belongs.
        yield Finding(
            code="SIM401",
            message=(f"dataclass {node.name} names a spec/plan/result "
                     f"type but is not frozen=True; mutable value "
                     f"objects detach cache keys from their data"),
            path=ctx.rel,
            line=decorator.lineno,
            col=decorator.col_offset,
        )


_MUTABLE_CALLS = {"list", "dict", "set"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
            and not node.args and not node.keywords)


@register("SIM402", "no mutable default arguments")
def check_mutable_defaults(ctx: FileContext) -> Iterator[Finding]:
    """A mutable default is shared by every call of the function."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield Finding(
                    code="SIM402",
                    message=(f"mutable default argument in "
                             f"{node.name}(); use None and create the "
                             f"container inside the function"),
                    path=ctx.rel,
                    line=default.lineno,
                    col=default.col_offset,
                )


def _fractional_float(node: ast.AST) -> Optional[float]:
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and not node.value.is_integer()):
        return node.value
    # -0.5 parses as UnaryOp(USub, Constant(0.5)).
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        return _fractional_float(node.operand)
    return None


@register("SIM403",
          "no float-literal equality in metric comparisons")
def check_float_equality(ctx: FileContext) -> Iterator[Finding]:
    """``ipc == 0.95`` flips on last-bit noise.

    Comparing a computed metric for equality against a fractional
    float literal is almost never meaningful; use a tolerance
    (``math.isclose``) or compare in integer units (cycles, bits).
    Whole-valued sentinels (``0.0``, ``1.0``) compare exactly and are
    allowed.
    """
    if not ctx.in_src:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, (left, right) in zip(node.ops, pairwise(operands),
                                      strict=True):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                value = _fractional_float(side)
                if value is not None:
                    yield Finding(
                        code="SIM403",
                        message=(f"float equality against {value!r}; "
                                 f"use math.isclose or integer units "
                                 f"for metric comparisons"),
                        path=ctx.rel,
                        line=side.lineno,
                        col=side.col_offset,
                    )
                    break
