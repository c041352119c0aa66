"""SIM1xx -- bit-determinism.

Serial and parallel sweeps must be bit-identical, and a cached result
must equal a fresh run (``tests/harness/test_parallel.py`` asserts
both).  Anything that couples a run to process-global state breaks
that silently: the process-wide RNG, the wall clock, hash-ordered
``set`` iteration (string hashes vary per process under
``PYTHONHASHSEED``), and ``id()``-based ordering (addresses vary per
process).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..context import FileContext
from ..findings import Finding
from ..registry import register
from .common import (
    collect_imports,
    is_call_to,
    iteration_targets,
    resolve_call_target,
)

#: random-module members that *construct seeded generators* -- the
#: sanctioned pattern -- as opposed to drawing from the global RNG.
_RNG_FACTORIES = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}

#: Wall-clock / entropy sources that make a run a function of *when*
#: (or *where*) it executed rather than of its plan.
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
    "os.urandom", "os.getrandom",
}

_SECRETS_PREFIX = "secrets."


def _finding(ctx: FileContext, node: ast.AST, code: str,
             message: str) -> Finding:
    return Finding(code=code, message=message, path=ctx.rel,
                   line=node.lineno, col=node.col_offset)


@register("SIM101",
          "no draws from the process-global random / numpy.random RNG")
def check_global_rng(ctx: FileContext) -> Iterator[Finding]:
    """Seeded ``random.Random(seed)`` instances only.

    ``random.random()`` (and friends) draw from interpreter-global
    state: any library call, import-order change or worker split
    reorders the stream and changes every downstream number.
    """
    imports = collect_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, imports)
        if target is None or target in _RNG_FACTORIES:
            continue
        head, _, member = target.partition(".")
        if head == "random" and member and "." not in member:
            yield _finding(
                ctx, node, "SIM101",
                f"call to the process-global RNG ({target}()); draw "
                f"from a seeded random.Random instance instead",
            )
        elif target.startswith("numpy.random.") or (
                head == "numpy" and member == "random"):
            yield _finding(
                ctx, node, "SIM101",
                f"call to the process-global NumPy RNG ({target}()); "
                f"use numpy.random.default_rng(seed)",
            )


@register("SIM102",
          "no wall-clock/entropy sources outside the harness timing "
          "paths")
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    """Simulator results must be pure functions of the plan.

    Timing instrumentation belongs in ``src/repro/harness/`` (runner
    duration provenance, timeout enforcement) and
    ``src/repro/service/`` (retry backoff, breaker cooldowns, queue
    drain estimates -- wall-clock concerns by design).  The analyzer
    itself (``src/repro/analysis/``, phase timing) reproduces no
    simulated numbers and is exempt too; anywhere else in
    ``src/repro/`` a clock or entropy read means the model's numbers
    can depend on when or where they were produced.
    """
    if (not ctx.in_src or ctx.in_harness or ctx.in_service
            or ctx.in_analysis):
        return
    imports = collect_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, imports)
        if target is None:
            continue
        if target in _CLOCK_CALLS or target.startswith(_SECRETS_PREFIX):
            yield _finding(
                ctx, node, "SIM102",
                f"wall-clock/entropy source {target}() in simulator "
                f"code; results must depend only on the plan -- keep "
                f"timing in src/repro/harness/",
            )


def _set_valued_names(tree: ast.AST) -> Set[str]:
    """Names (incl. ``self.x``) assigned a set anywhere in the module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not (isinstance(value, (ast.Set, ast.SetComp))
                or is_call_to(value, {"set", "frozenset"})):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                names.add(f"self.{target.attr}")
    return names


def _names_expr(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    return ""


#: Consumers for which element order cannot matter: a comprehension
#: feeding one of these directly is deterministic even over a set.
_ORDER_FREE_CONSUMERS = {"sorted", "set", "frozenset", "any", "all",
                         "len"}


def _order_free_comprehension(ctx: FileContext,
                              comp: Optional[ast.AST]) -> bool:
    if comp is None:
        return False
    if isinstance(comp, ast.SetComp):
        # Set-from-set: the result has no order to perturb.
        return True
    parent = ctx.parents().get(comp)
    return (isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_FREE_CONSUMERS)


@register("SIM103", "no unsorted iteration over sets")
def check_set_iteration(ctx: FileContext) -> Iterator[Finding]:
    """Set iteration order follows element hashes.

    For strings that order changes per process (``PYTHONHASHSEED``), so
    a loop over a set can produce different orderings -- and different
    float-accumulation results -- in otherwise identical runs.  Wrap
    the set in ``sorted(...)`` (as ``Network.tick`` does for
    ``_active``) or iterate a deterministic container.  Comprehensions
    whose result is order-free (fed straight into ``sorted``/``set``/
    ``any``/``all``/``len``) are exempt.
    """
    set_names = _set_valued_names(ctx.tree)
    for iter_node, anchor, comp in iteration_targets(ctx.tree):
        if _order_free_comprehension(ctx, comp):
            continue
        described = ""
        if (isinstance(iter_node, (ast.Set, ast.SetComp))
                or is_call_to(iter_node, {"set", "frozenset"})):
            described = "a set expression"
        else:
            name = _names_expr(iter_node)
            if name and name in set_names:
                described = f"the set {name!r}"
        if described:
            yield _finding(
                ctx, anchor, "SIM103",
                f"iteration over {described} without sorted(); set "
                f"order is hash-dependent and varies across processes",
            )


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
    for iter_node, anchor, _comp in iteration_targets(ctx.tree):
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
        yield _finding(
            ctx, anchor, "SIM104",
            f"unsorted .{iter_node.func.attr}() iteration inside "
            f"{func.name}(); output ordering will depend on dict "
            f"insertion order -- wrap in sorted(...)",
        )


@register("SIM105", "no id()-based ordering")
def check_id_ordering(ctx: FileContext) -> Iterator[Finding]:
    """``id()`` is an address: unique per process, never stable.

    Using it as a sort key (or tie-breaker) makes orderings
    unreproducible across processes and runs.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        is_orderer = (
            (isinstance(callee, ast.Name)
             and callee.id in ("sorted", "min", "max"))
            or (isinstance(callee, ast.Attribute)
                and callee.attr == "sort")
        )
        if not is_orderer:
            continue
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            if (isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"):
                uses_id = True
            else:
                uses_id = any(
                    is_call_to(sub, {"id"})
                    for sub in ast.walk(keyword.value)
                )
            if uses_id:
                yield _finding(
                    ctx, node, "SIM105",
                    "ordering by id(); object addresses differ "
                    "between processes, so this order is not "
                    "reproducible",
                )
