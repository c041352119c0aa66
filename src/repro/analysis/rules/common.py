"""Shared AST utilities for the rule modules."""

from __future__ import annotations

import ast
from typing import Iterable


def iteration_targets(nodes: Iterable[ast.AST]):
    """Yield every expression a ``for`` or comprehension iterates.

    Yields ``(iter_node, anchor_node, comp_node)`` triples; the anchor
    carries the line/col to report, ``comp_node`` is the enclosing
    comprehension (``None`` for statement loops).
    """
    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node, None
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, gen.iter, node
