"""Code hazards no run can see, checked by reading the source.

Properties a run can check are checked by running: determinism by the
golden corpus (``tests/golden/``), cache keys by the simulator-source
digest every key carries, units by the energy and plane-residency
identities every run checks, a non-blocking event loop by the service
loop guard (``tests/service/conftest.py``).  The eight hazards below
stay green in every run until the day they bite, so this module parses
each ``*.py`` under ``src/repro`` and ``tests/`` once and applies eight
checks to the tree:

* **SIM104** -- no unsorted dict iteration inside a function whose
  name marks it as producing output (reports, renders, digests).
* **SIM107** -- no discarded ``create_task()`` result, no swallowed
  ``CancelledError``.
* **SIM301** -- no bare ``except:``.
* **SIM302** -- no broad ``except Exception``/``BaseException`` that
  swallows; a handler that re-raises is exempt.
* **SIM303** -- simulator code raises ``ConfigError``, not ``KeyError``.
* **SIM401** -- spec/plan/result dataclasses are frozen.
* **SIM402** -- no mutable default arguments.
* **SIM403** -- no equality against a fractional float literal.

SIM303, SIM401 and SIM403 apply only under ``src/repro/``.  The few
deliberate sites live in :data:`ACCEPTED`, keyed by path, enclosing
function and code, each with its reason.  An entry that matches no
finding, or matches two, fails the suite: the list cannot go stale.

A ninth check reads the simulator as a whole: every attribute the
simulator packages store must have a reader somewhere in ``src/repro``
(state no result, check or trace reads is work each run pays for).
The names a test alone reads live in :data:`WRITE_ONLY_ACCEPTED`.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections import Counter
from itertools import pairwise
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (path, enclosing function qualname, code) -> why the site stays.
ACCEPTED = {
    ("src/repro/harness/workers.py", "worker_loop", "SIM302"):
        "Crash-isolation boundary: the pool worker turns any failure "
        "(simulator bug, MemoryError, KeyboardInterrupt) into an "
        "('error', ...) message so one bad run cannot kill the sweep; "
        "the parent decides retry-vs-manifest.",
    ("src/repro/harness/runner.py", "ExperimentRunner.run_many_report",
     "SIM302"):
        "Crash-isolation boundary on the serial path: it mirrors the "
        "worker-pool contract, so an erroring plan becomes a RunFailure "
        "in the sweep manifest and does not abort the remaining plans.",
    ("src/repro/service/server.py", "SweepService._handle_conn",
     "SIM302"):
        "Robustness boundary: a bug in one request handler becomes a "
        "500 for that client and never kills the accept loop.",
    ("src/repro/core/metrics.py", "ModelResult.run_for", "SIM303"):
        "run_for() deliberately mimics mapping lookup (callers and "
        "tests/core/test_metrics.py rely on KeyError); it looks up a "
        "result, not configuration, so ConfigError would be wrong.",
    ("src/repro/harness/table3.py", "TableResult.row", "SIM303"):
        "row() is a mapping-style accessor over already-computed rows "
        "(tests/harness/test_experiments.py asserts KeyError), not a "
        "configuration lookup.",
}

#: Checks that guard simulator code only; tests may do these freely.
SRC_ONLY = {"SIM303", "SIM401", "SIM403"}


class Finding(NamedTuple):
    path: str  # repo-relative posix path
    scope: str  # qualname of the enclosing def/class, or "<module>"
    code: str
    line: int
    message: str

    @property
    def site(self) -> Tuple[str, str, str]:
        return self.path, self.scope, self.code


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Every node of one file with the def/class nodes enclosing it,
#: outermost first.  A def's decorators, arguments and body sit inside
#: it.
Nodes = List[Tuple[ast.AST, Tuple[ast.AST, ...]]]

#: What a check yields: (line, enclosing scopes, message).
Hit = Tuple[int, Tuple[ast.AST, ...], str]


def index(tree: ast.AST) -> Nodes:
    nodes: Nodes = []
    stack: Nodes = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        nodes.append((node, scopes))
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            scopes = (*scopes, node)
        stack.extend((child, scopes) for child in ast.iter_child_nodes(node))
    return nodes


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Cleanup-then-propagate (a top-level bare ``raise``) swallows
    nothing."""
    return any(isinstance(stmt, ast.Raise) and stmt.exc is None
               for stmt in handler.body)


# -- SIM104: output ordering ---------------------------------------------

#: Function names whose results are externally visible orderings:
#: reports, rendered tables, serialized payloads, hashes and cache keys.
_OUTPUT_NAMES = (
    "report", "render", "describe", "summary", "manifest", "dump",
    "format", "digest", "canonical", "serializ", "fingerprint",
    "cache_key", "to_json", "write_", "emit",
)


def sim104(nodes: Nodes) -> Iterator[Hit]:
    """Dict order is insertion order; output must not depend on it.

    The order is stable within and across processes, so the corpus
    stays green until a refactor of the producing code reorders a
    report (the ``utilization_report`` bug)."""
    for node, scopes in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        funcs = [scope for scope in scopes if isinstance(scope, _DEFS)]
        if not funcs or not any(marker in funcs[-1].name.lower()
                                for marker in _OUTPUT_NAMES):
            continue
        for it in iters:
            if (isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr in ("items", "keys", "values")
                    and not it.args and not it.keywords):
                yield it.lineno, scopes, (
                    f"unsorted .{it.func.attr}() iteration inside "
                    f"{funcs[-1].name}(); output ordering will depend on "
                    f"dict insertion order -- wrap in sorted(...)")


# -- SIM107: asyncio hygiene ---------------------------------------------

def _names_cancelled(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "CancelledError"
    if isinstance(node, ast.Attribute):
        return node.attr == "CancelledError"
    if isinstance(node, ast.Tuple):
        return any(_names_cancelled(element) for element in node.elts)
    return False


def sim107(nodes: Nodes) -> Iterator[Hit]:
    """The loop holds tasks only weakly, so a discarded task can be
    collected mid-flight; a swallowed cancellation wedges shutdown."""
    for node, scopes in nodes:
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "create_task"):
            yield node.lineno, scopes, (
                "create_task() result discarded; the task can be "
                "garbage-collected mid-flight -- keep the reference "
                "until it is done")
        elif (isinstance(node, ast.ExceptHandler) and node.type is not None
                and _names_cancelled(node.type) and not _reraises(node)):
            yield node.lineno, scopes, (
                "CancelledError caught without re-raising wedges graceful "
                "shutdown -- clean up, then 'raise'")


# -- SIM3xx: exception hygiene -------------------------------------------

def sim301(nodes: Nodes) -> Iterator[Hit]:
    """``except:`` also catches KeyboardInterrupt and SystemExit."""
    for node, scopes in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node.lineno, scopes, (
                "bare 'except:'; name the exceptions")


def sim302(nodes: Nodes) -> Iterator[Hit]:
    """A swallowed ``Exception`` turns a simulator bug into a bad
    result; only crash-isolation boundaries may do it."""
    for node, scopes in nodes:
        if (not isinstance(node, ast.ExceptHandler) or node.type is None
                or _reraises(node)):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for name in (t.id for t in types if isinstance(t, ast.Name)):
            if name in ("Exception", "BaseException"):
                yield node.lineno, scopes, (
                    f"broad 'except {name}' swallows simulator bugs; "
                    f"catch specific exceptions, or list a deliberate "
                    f"crash-isolation boundary in ACCEPTED")


def sim303(nodes: Nodes) -> Iterator[Hit]:
    """A sweep manifest reads ``KeyError`` as an internal bug; a bad
    model, benchmark or plane name is a ``ConfigError``."""
    for node, scopes in nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "KeyError":
            yield node.lineno, scopes, (
                "raising KeyError from simulator code; raise ConfigError "
                "(repro.interconnect.errors) so sweep failure manifests "
                "name the bad configuration")


# -- SIM4xx: model hygiene -----------------------------------------------

#: Class-name suffixes of value types that feed hashes and cache keys.
#: Mutable worker types (Transfer, Segment, counters) fall outside.
_VALUE_SUFFIX = re.compile(
    r"(Spec|Plan|Report|Summary|Config|Result|Metrics|Run|Failure|"
    r"Scenario|Row|Profile|Kill)$")


def _is_frozen(decorator: ast.AST) -> bool:
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True for keyword in decorator.keywords)


def sim401(nodes: Nodes) -> Iterator[Hit]:
    """A mutable plan can change after its cache key was taken,
    detaching the stored result from what ran."""
    for node, scopes in nodes:
        if (not isinstance(node, ast.ClassDef)
                or not _VALUE_SUFFIX.search(node.name)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            name = getattr(target, "id", getattr(target, "attr", ""))
            if name == "dataclass" and not _is_frozen(decorator):
                yield decorator.lineno, (*scopes, node), (
                    f"dataclass {node.name} names a spec/plan/result "
                    f"type but is not frozen=True")


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set")
            and not node.args and not node.keywords)


def sim402(nodes: Nodes) -> Iterator[Hit]:
    """A mutable default is shared by every call of the function."""
    for node, scopes in nodes:
        if not isinstance(node, _DEFS):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None and _is_mutable(default):
                yield default.lineno, (*scopes, node), (
                    f"mutable default argument in {node.name}(); use "
                    f"None and create the container inside")


def _fractional(node: ast.AST):
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        return _fractional(node.operand)
    if (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and not node.value.is_integer()):
        return node.value
    return None


def sim403(nodes: Nodes) -> Iterator[Hit]:
    """``ipc == 0.95`` flips on last-bit noise; whole-valued sentinels
    (``0.0``, ``1.0``) compare exactly and are allowed."""
    for node, scopes in nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = pairwise([node.left, *node.comparators])
        for op, sides in zip(node.ops, operands, strict=True):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in sides:
                value = _fractional(side)
                if value is not None:
                    yield side.lineno, scopes, (
                        f"float equality against {value!r}; use "
                        f"math.isclose or integer units")
                    break


CHECKS = {
    "SIM104": sim104, "SIM107": sim107, "SIM301": sim301,
    "SIM302": sim302, "SIM303": sim303, "SIM401": sim401,
    "SIM402": sim402, "SIM403": sim403,
}


def check_source(path: str, source: str) -> List[Finding]:
    """Every finding in one file, ``path`` being repo-relative."""
    nodes = index(ast.parse(source, filename=path))
    findings = []
    for code, check in CHECKS.items():
        if code in SRC_ONLY and not path.startswith("src/repro/"):
            continue
        for line, scopes, message in check(nodes):
            scope = ".".join(s.name for s in scopes) or "<module>"
            findings.append(Finding(path, scope, code, line, message))
    return sorted(findings, key=lambda f: (f.line, f.code))


@pytest.fixture(scope="module")
def repo_findings() -> List[Finding]:
    findings = []
    for top in ("src/repro", "tests"):
        for file in sorted((ROOT / top).rglob("*.py")):
            findings += check_source(file.relative_to(ROOT).as_posix(),
                                     file.read_text(encoding="utf-8"))
    return findings


def _render(findings) -> str:
    return "\n".join(f"{f.path}:{f.line}: {f.code} in {f.scope}: "
                     f"{f.message}" for f in findings)


def test_no_hazard_outside_the_accepted_sites(repo_findings):
    new = [f for f in repo_findings if f.site not in ACCEPTED]
    assert not new, "\n" + _render(new)


def test_every_accepted_site_holds_exactly_one_finding(repo_findings):
    hits = Counter(f.site for f in repo_findings)
    wrong = {key: hits[key] for key in ACCEPTED if hits[key] != 1}
    assert not wrong, (
        f"ACCEPTED entries with 0 findings are stale (delete them); "
        f"ones with 2+ hide a new hazard at an accepted site: {wrong}")


# -- each check's bad and good case --------------------------------------

def codes(path: str, source: str) -> List[str]:
    return [f.code for f in check_source(path, textwrap.dedent(source))]


CORE = "src/repro/core/demo.py"
SERVICE = "src/repro/service/demo.py"
TESTS = "tests/test_demo.py"

#: code -> (path, bad source, good source).
CASES = {
    "SIM104": (CORE, """
        def utilization_report(counters):
            rows = []
            for key, value in counters.items():
                rows.append((key, value))
            return rows
        """, """
        def utilization_report(counters):
            return [kv for kv in sorted(counters.items())]
        """),
    "SIM107": (SERVICE, """
        import asyncio

        async def kick(work):
            asyncio.create_task(work())
        """, """
        import asyncio

        TASKS = set()

        async def kick(work):
            task = asyncio.create_task(work())
            TASKS.add(task)
            task.add_done_callback(TASKS.discard)
            return task
        """),
    "SIM301": (CORE, """
        def run(step):
            try:
                step()
            except:
                pass
        """, """
        def run(step):
            try:
                step()
            except ValueError:
                pass
        """),
    "SIM302": (CORE, """
        def run(step):
            try:
                step()
            except Exception:
                return None
        """, """
        def run(step):
            try:
                step()
            except (ValueError, OSError):
                return None
        """),
    "SIM303": (CORE, """
        def lookup(table, model):
            if model not in table:
                raise KeyError(model)
            return table[model]
        """, """
        from repro.interconnect.errors import ConfigError

        def lookup(table, model):
            if model not in table:
                raise ConfigError(f"unknown model {model!r}")
            return table[model]
        """),
    "SIM401": (CORE, """
        from dataclasses import dataclass

        @dataclass
        class SweepPlan:
            model: str
        """, """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SweepPlan:
            model: str
        """),
    "SIM402": (CORE, """
        def run(steps=[]):
            return steps
        """, """
        def run(steps=None):
            return steps if steps is not None else []
        """),
    "SIM403": (CORE, """
        def saturated(ipc):
            return ipc == 0.95
        """, """
        import math

        def saturated(ipc):
            return math.isclose(ipc, 0.95, rel_tol=1e-9)
        """),
}


@pytest.mark.parametrize("code", CHECKS)
def test_bad_case_is_flagged(code):
    path, bad, _good = CASES[code]
    assert codes(path, bad) == [code]


@pytest.mark.parametrize("code", CHECKS)
def test_good_case_is_clean(code):
    path, _bad, good = CASES[code]
    assert codes(path, good) == []


#: code -> (a phrase its message must carry, line of the bad case's
#: finding).  SIM401 reports the decorator line, not ``class``.
MESSAGES = {
    "SIM104": ("insertion order", 4),
    "SIM107": ("garbage-collected", 5),
    "SIM301": ("name the exceptions", 5),
    "SIM302": ("crash-isolation", 5),
    "SIM303": ("ConfigError", 4),
    "SIM401": ("SweepPlan", 4),
    "SIM402": ("use None", 2),
    "SIM403": ("0.95", 3),
}


@pytest.mark.parametrize("code", CHECKS)
def test_bad_case_message(code):
    path, bad, _good = CASES[code]
    phrase, line = MESSAGES[code]
    [finding] = check_source(path, textwrap.dedent(bad))
    assert phrase in finding.message
    assert finding.line == line


def test_swallowed_cancellation_is_flagged():
    source = """
        import asyncio

        async def drain(task):
            try:
                await task
            except asyncio.CancelledError:
                pass
        """
    [finding] = check_source(SERVICE, textwrap.dedent(source))
    assert finding.code == "SIM107"
    assert "wedges graceful shutdown" in finding.message


EDGES = [
    pytest.param(CORE, """
        def accumulate(counters):
            return sum(value for key, value in counters.items())
        """, [], id="SIM104-only-output-functions"),
    pytest.param(SERVICE, """
        async def kick(loop, work):
            loop.create_task(work())
        """, ["SIM107"], id="SIM107-loop-method"),
    pytest.param(SERVICE, """
        async def kick(track, work):
            track(asyncio.create_task(work()))
        """, [], id="SIM107-task-passed-on"),
    pytest.param(TESTS, """
        async def test_kick(work):
            asyncio.create_task(work())
        """, ["SIM107"], id="SIM107-fires-in-tests"),
    pytest.param(SERVICE, """
        async def drain(task, log):
            try:
                await task
            except CancelledError:
                log("cancelled")
            try:
                await task
            except (RuntimeError, CancelledError):
                log("either")
        """, ["SIM107", "SIM107"], id="SIM107-name-and-tuple"),
    pytest.param(SERVICE, """
        async def drain(task, log):
            try:
                await task
            except RuntimeError as exc:
                log(exc)
        """, [], id="SIM107-other-exceptions"),
    pytest.param(SERVICE, """
        async def drain(task, release):
            try:
                await task
            except asyncio.CancelledError:
                release()
                raise
        """, [], id="SIM107-cleanup-then-raise"),
    pytest.param(CORE, """
        def run(step):
            try:
                step()
            except (ValueError, BaseException) as exc:
                return exc
        """, ["SIM302"], id="SIM302-broad-in-tuple"),
    pytest.param(CORE, """
        def publish(tmp, final):
            try:
                os.replace(tmp, final)
            except BaseException:
                os.unlink(tmp)
                raise
        """, [], id="SIM302-cleanup-then-raise"),
    pytest.param(CORE, """
        def lookup(table, model):
            try:
                return table[model]
            except KeyError:
                raise
        """, [], id="SIM303-bare-reraise"),
    pytest.param(TESTS, """
        def fake_lookup(model):
            raise KeyError(model)
        """, [], id="SIM303-src-only"),
    pytest.param(CORE, """
        @dataclass(frozen=False, eq=True)
        class WireSpec:
            width: int
        """, ["SIM401"], id="SIM401-frozen-false"),
    pytest.param(CORE, """
        @dataclass
        class Transfer:
            hops: list = field(default_factory=list)
        """, [], id="SIM401-worker-types"),
    pytest.param(TESTS, """
        @dataclass
        class FakePlan:
            model: str
        """, [], id="SIM401-src-only"),
    pytest.param(CORE, """
        def run(steps=[], opts=dict(), *, tags={"a"}):
            return steps, opts, tags
        """, ["SIM402"] * 3, id="SIM402-literal-and-constructor"),
    pytest.param(CORE, """
        def run(steps=None, limit=4, name="x"):
            return [] if steps is None else steps
        """, [], id="SIM402-immutable-defaults"),
    pytest.param(TESTS, """
        def helper(acc=[]):
            return acc
        """, ["SIM402"], id="SIM402-fires-in-tests"),
    pytest.param(CORE, """
        def check(ipc, delta):
            return ipc == 0.95 or delta != -0.5
        """, ["SIM403"] * 2, id="SIM403-fractional"),
    pytest.param(CORE, """
        def check(util, weight):
            return util == 1.0 or weight == 0.0
        """, [], id="SIM403-whole-valued"),
    pytest.param(CORE, """
        def check(util):
            return 0.25 < util <= 0.75
        """, [], id="SIM403-ordering"),
    pytest.param(TESTS, """
        def test_exact():
            assert 0.5 == 0.5
        """, [], id="SIM403-src-only"),
]


@pytest.mark.parametrize("path, source, expected", EDGES)
def test_edge_case(path, source, expected):
    assert codes(path, source) == expected


def test_findings_name_their_enclosing_function():
    source = """
        class Table:
            def row(self, name):
                raise KeyError(name)

        def run(steps=[]):
            return steps
        """
    assert [(f.scope, f.code, f.line) for f in
            check_source(CORE, textwrap.dedent(source))] == [
        ("Table.row", "SIM303", 4), ("run", "SIM402", 6)]


# -- write-only state ----------------------------------------------------

#: Packages under ``src/repro`` whose attribute stores must have a reader.
SIMULATOR_PACKAGES = (
    "core", "clusters", "frontend", "interconnect", "memory", "operands",
    "power", "faults", "workloads", "wires", "telemetry",
)

#: Attribute name -> why the simulator stores it with no reader in
#: ``src/repro``.  Each is the only way a test sees its mechanism fire.
WRITE_ONLY_ACCEPTED = {
    "speculative_loads":
        "LoadStoreQueue has no telemetry handle: a load run past "
        "unresolved older stores shows only in this count "
        "(tests/memory/test_depspec.py).",
    "true_forwards":
        "LoadStoreQueue has no telemetry handle: the LSQ unit tests see "
        "store-to-load forwarding only in this count "
        "(tests/memory/test_lsq.py, tests/core/test_processor.py).",
    "violations":
        "LoadStoreQueue: the dependence-speculation tests hold this "
        "count against the speculated loads (tests/memory/test_depspec.py).",
    "exhausted":
        "FetchUnit has no telemetry handle: the fetch tests run until a "
        "finite record stream is dry (tests/frontend/test_fetch.py).",
}


def _slot_strings(tree: ast.AST) -> set:
    """ids of the nodes inside every ``__slots__ = ...`` value."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            inside.update(id(sub) for sub in ast.walk(node.value))
    return inside


def write_only_attributes(sources: Mapping[str, str]
                          ) -> Dict[str, List[str]]:
    """Attribute name -> its store sites (``path:line``), for every
    attribute a simulator package stores that no file in ``sources``
    loads or names in a string outside ``__slots__``.

    ``sources`` maps every repo-relative ``src/repro`` path to its text.
    A string counts as a reader because ``getattr`` and report tables
    name attributes that way; a ``__slots__`` entry only declares one.
    """
    stores: Dict[str, List[str]] = {}
    read = set()
    for path, source in sorted(sources.items()):
        tree = ast.parse(source, filename=path)
        slots = _slot_strings(tree)
        simulator = path.split("/")[2] in SIMULATOR_PACKAGES
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.ctx, ast.Store) and simulator:
                    stores.setdefault(node.attr, []).append(
                        f"{path}:{node.lineno}")
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in slots):
                read.add(node.value)
    return {name: sorted(sites) for name, sites in sorted(stores.items())
            if name not in read}


@pytest.fixture(scope="module")
def write_only() -> Dict[str, List[str]]:
    return write_only_attributes({
        file.relative_to(ROOT).as_posix(): file.read_text(encoding="utf-8")
        for file in sorted((ROOT / "src/repro").rglob("*.py"))})


def test_simulator_state_has_a_reader(write_only):
    new = {name: sites for name, sites in write_only.items()
           if name not in WRITE_ONLY_ACCEPTED}
    assert not new, (
        "attributes the simulator stores but nothing in src/repro reads "
        "-- delete them, or read them where a result, check or trace "
        "needs them:\n" + "\n".join(
            f"{name}: {', '.join(sites)}" for name, sites in new.items()))


def test_every_write_only_acceptance_is_still_write_only(write_only):
    stale = sorted(set(WRITE_ONLY_ACCEPTED) - set(write_only))
    assert not stale, (
        f"WRITE_ONLY_ACCEPTED names that now have a reader or are no "
        f"longer stored (delete them): {stale}")


WRITE_ONLY_CASES = [
    pytest.param({CORE: """
        class Unit:
            def __init__(self):
                self.hits = 0

            def tick(self):
                self.hits += 1
        """}, ["hits"], id="stored-never-read"),
    pytest.param({CORE: """
        class Unit:
            def __init__(self):
                self.hits = 0

            def rate(self):
                return self.hits
        """}, [], id="read-by-attribute"),
    pytest.param({CORE: """
        class Unit:
            def __init__(self):
                self.hits = 0
        """, "src/repro/harness/demo.py": """
        def report(unit):
            return getattr(unit, "hits")
        """}, [], id="read-by-name-elsewhere"),
    pytest.param({CORE: """
        class Unit:
            __slots__ = ("hits",)

            def __init__(self):
                self.hits = 0
        """}, ["hits"], id="slots-entry-is-no-reader"),
    pytest.param({"src/repro/harness/demo.py": """
        class Sweep:
            def __init__(self):
                self.hits = 0
        """}, [], id="harness-stores-are-not-checked"),
]


@pytest.mark.parametrize("sources, expected", WRITE_ONLY_CASES)
def test_write_only_case(sources, expected):
    found = write_only_attributes(
        {path: textwrap.dedent(text)
         for path, text in sorted(sources.items())})
    assert list(found) == expected
