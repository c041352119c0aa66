"""Per-module facts feeding the whole-program passes.

The project analysis never holds every AST in memory at once: phase 1
reduces each file to a :class:`ModuleFacts` record -- imports (relative
ones resolved against the module's dotted name), defined
functions/classes, an approximate list of call sites with receiver
resolution hints, and RNG construction sites with a local seed-taint
verdict.  Facts are plain JSON-able data, which is what makes the
``.simlint-cache`` entries (and the process-pool hand-off) cheap.

Taint verdicts here are *local*: an expression is ``T`` (tainted) when
it syntactically mentions a seed-ish name/attribute or a seed-deriving
call, ``P:<name>`` when it flows from a parameter of the enclosing
function (the project pass chases callers), and ``U`` otherwise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .context import FileContext

#: Identifier shapes treated as seed-carrying by the SIM5xx taint pass.
SEEDISH_RE = re.compile(r"(^|_)seeds?(_|$)")

#: RNG factory calls whose seed argument SIM501 audits.  Maps the
#: resolved dotted callee to the keyword name of its seed argument
#: (the first positional argument always counts).
RNG_FACTORIES = {
    "random.Random": "seed",
    "numpy.random.default_rng": "seed",
    "numpy.random.RandomState": "seed",
    "numpy.random.SeedSequence": "entropy",
}

#: OS-entropy generators: never derivable from a plan seed at all.
RNG_ENTROPY = {"random.SystemRandom"}

# Taint states.
TAINTED = "T"
UNTAINTED = "U"
_PARAM_PREFIX = "P:"


def seedish(name: str) -> bool:
    return bool(SEEDISH_RE.search(name.lower()))


def param_of(state: str) -> Optional[str]:
    """The parameter name of a ``P:<name>`` taint state, else None."""
    if state.startswith(_PARAM_PREFIX):
        return state[len(_PARAM_PREFIX):]
    return None


# The records below are working data for the linker, not simulator
# value types; they stay plain and mutable on purpose.


@dataclass
class FunctionInfo:
    """One def: enough signature to map call arguments to parameters."""

    qual: str  # "Class.method" / "func" / "outer.inner"
    name: str
    cls: str  # enclosing class name, "" for module functions
    line: int = 0
    col: int = 0
    is_async: bool = False
    params: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One call expression, with receiver-resolution hints.

    ``kind`` is how the callee was spelled:

    * ``dotted`` -- a Name/Attribute chain resolved through the import
      map (``os.replace``, ``repro.service.jobs.JobStore``);
    * ``self`` -- ``self.method()`` (resolve against the caller's
      class);
    * ``selfattr`` -- ``self.<obj>.method()`` (resolve via the class's
      recorded attribute constructors);
    * ``class`` -- ``var.method()`` where ``var`` was locally assigned
      ``SomeClass(...)`` (``target`` holds the class's dotted name);
    * ``attr`` -- ``<anything>.method()`` with an unresolvable
      receiver (still useful for name-matched sinks like
      ``write_text``).
    """

    caller: str  # qualname of enclosing function, "" at module level
    kind: str
    target: str  # dotted name (dotted/class kinds), else ""
    attr: str  # method name for self/selfattr/class/attr kinds
    obj: str  # self attribute name for selfattr
    line: int = 0
    col: int = 0
    pos_taints: List[str] = field(default_factory=list)
    kw_taints: Dict[str, str] = field(default_factory=dict)


@dataclass
class RngSite:
    """One RNG-factory construction and its local seed verdict."""

    factory: str
    state: str  # T / U / P:<name> / "missing" / "entropy"
    caller: str
    line: int = 0
    col: int = 0


@dataclass
class ModuleFacts:
    """Everything the project passes need to know about one file."""

    rel: str = ""
    module: str = ""
    import_modules: Dict[str, str] = field(default_factory=dict)
    import_members: Dict[str, str] = field(default_factory=dict)
    classes: List[str] = field(default_factory=list)
    functions: List[dict] = field(default_factory=list)
    calls: List[dict] = field(default_factory=list)
    self_attr_types: Dict[str, Dict[str, str]] = field(
        default_factory=dict)
    rng_sites: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ModuleFacts":
        return cls(**data)


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/service/jobs.py`` -> ``repro.service.jobs``; files
    outside ``src/`` (tests, scripts) keep their path-derived dotted
    name so they stay unique in the graph.
    """
    path = rel
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith(".py"):
        path = path[:-len(".py")]
    if path.endswith("/__init__"):
        path = path[:-len("/__init__")]
    return path.replace("/", ".")


def _resolve_relative(module: str, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute dotted module for a ``from ...x import y``."""
    parts = module.split(".")
    if level > len(parts):
        return None
    base = parts[:len(parts) - level]
    if target:
        base.append(target)
    return ".".join(base) if base else None


class _FactsVisitor(ast.NodeVisitor):
    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        # (qualname parts, FunctionInfo) stack of enclosing defs.
        self._func_stack: List[FunctionInfo] = []
        self._class_stack: List[str] = []
        # Per-function local var -> dotted class name.
        self._var_types: List[Dict[str, str]] = []

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else local
            self.facts.import_modules[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = _resolve_relative(self.facts.module, node.level,
                                     node.module)
        else:
            base = node.module
        if base is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                self.facts.import_members[local] = f"{base}.{alias.name}"
        self.generic_visit(node)

    # -- defs ------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.facts.classes.append(node.name)
        self.facts.self_attr_types.setdefault(node.name, {})
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        cls = self._class_stack[-1] if self._class_stack else ""
        prefix = ".".join(info.name for info in self._func_stack)
        qual_parts = [p for p in (cls, prefix, node.name) if p]
        params = [a.arg for a in (
            list(getattr(node.args, "posonlyargs", []))
            + node.args.args + node.args.kwonlyargs
        ) if a.arg != "self"]
        info = FunctionInfo(
            qual=".".join(qual_parts), name=node.name, cls=cls,
            line=node.lineno, col=node.col_offset,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=params,
        )
        self.facts.functions.append(asdict(info))
        self._func_stack.append(info)
        self._var_types.append({})
        self.generic_visit(node)
        self._var_types.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    # -- assignments (receiver typing) -----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        ctor = self._constructed_class(node.value)
        if ctor is not None:
            for target in node.targets:
                self._record_typed(target, ctor)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            ctor = self._constructed_class(node.value)
            if ctor is not None:
                self._record_typed(node.target, ctor)
        self.generic_visit(node)

    def _constructed_class(self, value: ast.AST) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        dotted = self._dotted(value.func)
        if dotted is None:
            return None
        last = dotted.split(".")[-1]
        if not last[:1].isupper():
            return None
        return self._resolve_dotted(dotted)

    def _record_typed(self, target: ast.AST, ctor: str) -> None:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self" and self._class_stack):
            self.facts.self_attr_types[self._class_stack[-1]][
                target.attr] = ctor
        elif isinstance(target, ast.Name) and self._var_types:
            self._var_types[-1][target.id] = ctor

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        caller = self._func_stack[-1].qual if self._func_stack else ""
        site = self._classify_call(node, caller)
        if site is not None:
            site.pos_taints = [self._taint(arg) for arg in node.args]
            site.kw_taints = {
                kw.arg: self._taint(kw.value)
                for kw in node.keywords if kw.arg is not None
            }
            self.facts.calls.append(asdict(site))
            self._maybe_rng(node, site)
        self.generic_visit(node)

    def _classify_call(self, node: ast.Call,
                       caller: str) -> Optional[CallSite]:
        func = node.func
        loc = dict(line=node.lineno, col=node.col_offset)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                return CallSite(caller=caller, kind="self", target="",
                                attr=func.attr, obj="", **loc)
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"):
                return CallSite(caller=caller, kind="selfattr",
                                target="", attr=func.attr,
                                obj=base.attr, **loc)
            if isinstance(base, ast.Name):
                var_type = (self._var_types[-1].get(base.id)
                            if self._var_types else None)
                if var_type is not None:
                    return CallSite(caller=caller, kind="class",
                                    target=var_type, attr=func.attr,
                                    obj="", **loc)
        dotted = self._dotted(func)
        if dotted is not None:
            return CallSite(caller=caller, kind="dotted",
                            target=self._resolve_dotted(dotted),
                            attr="", obj="", **loc)
        if isinstance(func, ast.Attribute):
            return CallSite(caller=caller, kind="attr", target="",
                            attr=func.attr, obj="", **loc)
        return None

    def _dotted(self, node: ast.AST) -> Optional[str]:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def _resolve_dotted(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if head in self.facts.import_members:
            resolved = self.facts.import_members[head]
            return f"{resolved}.{rest}" if rest else resolved
        if head in self.facts.import_modules:
            resolved = self.facts.import_modules[head]
            return f"{resolved}.{rest}" if rest else resolved
        return dotted

    # -- seed taint ------------------------------------------------------

    def _taint(self, expr: ast.AST) -> str:
        param_hit: Optional[str] = None
        params = (set(self._func_stack[-1].params)
                  if self._func_stack else set())
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                if seedish(node.id):
                    return TAINTED
                if param_hit is None and node.id in params:
                    param_hit = node.id
            elif isinstance(node, ast.Attribute):
                if seedish(node.attr):
                    return TAINTED
            elif isinstance(node, ast.Call):
                dotted = self._dotted(node.func)
                if dotted and seedish(dotted.split(".")[-1]):
                    return TAINTED
        if param_hit is not None:
            return _PARAM_PREFIX + param_hit
        return UNTAINTED

    def _maybe_rng(self, node: ast.Call, site: CallSite) -> None:
        if site.kind != "dotted":
            return
        if site.target in RNG_ENTROPY:
            state = "entropy"
        elif site.target in RNG_FACTORIES:
            seed_kw = RNG_FACTORIES[site.target]
            if node.args:
                state = site.pos_taints[0]
            elif seed_kw in site.kw_taints:
                state = site.kw_taints[seed_kw]
            else:
                state = "missing"
        else:
            return
        self.facts.rng_sites.append(asdict(RngSite(
            factory=site.target, state=state, caller=site.caller,
            line=node.lineno, col=node.col_offset,
        )))


def extract_facts(ctx: FileContext) -> ModuleFacts:
    """Reduce one parsed file to its :class:`ModuleFacts`."""
    facts = ModuleFacts(rel=ctx.rel, module=module_name_for(ctx.rel))
    visitor = _FactsVisitor(facts)
    visitor.visit(ctx.tree)
    return facts
