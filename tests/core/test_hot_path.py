"""The per-instruction paths load no enum-class attribute and call no
convenience property.

Loading an enum member off its class, such as ``OpClass.STORE``, costs
about ten times a module global load on CPython 3.11 (110-130 ns
against 7-12 ns under ``python -m timeit``).  The functions
below run once or more per simulated instruction, so they read module
aliases (``_STORE``) and attributes stamped onto the members at import
(``op._mem``, ``kind._address``) instead.  ``EventKind`` members stay
allowed inside an ``if tel.enabled`` or ``if traced`` branch, which an
untraced run never enters.
"""

import ast
from pathlib import Path

import pytest

from repro.interconnect.message import TransferKind

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module, class) -> the hot methods checked.
HOT = {
    ("core/processor.py", "ClusteredProcessor"): (
        "_run_until", "_dispatch", "_rename", "_complete",
        "_result_ready", "_send_address", "_start_operand_transfer", "_send_store_data",
        "_send_load_data", "_send_redirect", "_commit",
    ),
    ("frontend/fetch.py", "FetchUnit"): ("tick",),
    ("memory/lsq.py", "LoadStoreQueue"): ("allocate", "_finish_forward"),
    ("interconnect/selection.py", "WireSelector"): (
        "_plan", "_bulk_choice", "demand_planes",
    ),
    ("memory/hierarchy.py", "MemoryHierarchy"): ("lookup_levels",),
}

ENUMS = {"OpClass", "TransferKind", "WireClass", "HitLevel"}
#: Python-level properties with a stamped or inline equivalent.
PROPERTIES = {"is_store", "is_load", "is_branch", "is_memory",
              "writes_int_register", "is_address", "needs_redirect"}


def _traced_only(test: ast.expr) -> bool:
    """An ``if`` test that only a traced run passes."""
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "enabled")
        or (isinstance(node, ast.Name) and node.id == "traced")
        for node in ast.walk(test)
    )


def slow_loads(func: ast.AST) -> list:
    """Every enum-class attribute load and hot property call in
    ``func``, as ``"<source> (line N)"``."""
    found = []

    def visit(node, traced):
        if isinstance(node, ast.If) and _traced_only(node.test):
            visit(node.test, traced)
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, traced)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Load):
            owner = node.value
            if isinstance(owner, ast.Name) and (
                    owner.id in ENUMS
                    or (owner.id == "EventKind" and not traced)):
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
            elif node.attr in PROPERTIES:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, traced)

    visit(func, False)
    return found


def _method(module: str, cls: str, name: str) -> ast.FunctionDef:
    path = SRC / module
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{module}: no {cls}.{name}")


@pytest.mark.parametrize("module, cls, name", [
    pytest.param(module, cls, name, id=f"{cls}.{name}")
    for (module, cls), names in HOT.items() for name in names
])
def test_hot_method_reads_no_enum_class(module, cls, name):
    assert slow_loads(_method(module, cls, name)) == []


def _loads(source: str) -> list:
    return slow_loads(ast.parse(source))


class TestGuard:
    def test_flags_enum_class_loads(self):
        assert _loads("x = op is OpClass.STORE") == [
            "OpClass.STORE (line 1)"]
        assert len(_loads("a = HitLevel.L1\nb = WireClass.L in s")) == 2

    def test_flags_properties(self):
        assert _loads("if instr.is_store and k.is_address: pass") == [
            "instr.is_store (line 1)", "k.is_address (line 1)"]

    def test_event_kind_only_under_a_traced_branch(self):
        assert _loads("if tel.enabled:\n    e = EventKind.LB_DIVERT") == []
        assert _loads("if traced:\n    e = EventKind.LB_DIVERT") == []
        assert _loads("if tel.enabled:\n    pass\n"
                      "else:\n    e = EventKind.LB_DIVERT") == [
            "EventKind.LB_DIVERT (line 4)"]
        assert _loads("e = EventKind.LB_DIVERT") == [
            "EventKind.LB_DIVERT (line 1)"]

    def test_module_aliases_are_fine(self):
        assert _loads("x = op is _STORE or op._mem or kind._address") == []


def test_stamped_transfer_flags_match_the_properties():
    for kind in TransferKind:
        assert kind._address == kind.is_address
        assert kind._result == (kind in (TransferKind.OPERAND,
                                         TransferKind.LOAD_DATA))
