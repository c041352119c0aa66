"""Per-file context handed to every rule.

Holds the parsed AST, walked once, and the repo-relative path (rules
that guard simulator code scope themselves to ``src/repro/``).  The
inline ``# simlint: disable=CODE`` suppressions are read from the
token stream here too; the engine applies them to what the rules
report.

Suppression comments follow the convention stated in the package doc:

* on a code line, they apply to findings reported on that line;
* on a line of their own, they apply to the next code line (so a
  rationale can sit above a long statement).

Codes are comma-separated and may end in ``x`` wildcards to cover a
family (``SIM3xx`` suppresses every SIM3 rule); ``all`` suppresses
everything.  A rationale may follow the last code after a space.
Suppressing a whole family or ``all`` is meant for annotated
boundaries like the crash-isolation worker, not for routine use --
prefer the exact code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: ``disable=`` then a comma-separated list of code tokens.  The list
#: ends at the first word that follows a code after plain whitespace,
#: so a rationale on the same line (``disable=SIM302 crash boundary``)
#: never merges into the last code.
_DISABLE_RE = re.compile(
    r"#\s*simlint:\s*disable=\s*(\w+(?:\s*,\s*\w+)*)"
)

#: Tokens that carry no code: a line holding only these is not a code
#: line.
_LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                     tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER))


def parse_suppressions(source: str
                       ) -> Tuple[Dict[int, Set[str]], Optional[str]]:
    """Map line number -> suppression patterns, plus a tokenize error.

    Patterns are uppercased verbatim tokens (``SIM301``, ``SIM3XX``,
    ``ALL``); wildcard matching happens in :func:`suppressed`.

    Returns ``(suppressions, error)``.  When the token stream cannot
    be read at all, ``error`` carries a description and the map is
    empty -- the caller must surface that (SIM002), because a file
    whose suppressions silently vanish would re-report every
    deliberately-suppressed finding (or worse, pass a gate its author
    thought was suppressed for a *reason* that no longer parses).
    """
    suppressions: Dict[int, Set[str]] = {}
    # Standalone comments still waiting for the next code line.
    pending: List[Set[str]] = []
    last_code_line = 0
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                match = _DISABLE_RE.search(tok.string)
                if match is None:
                    continue
                codes = {c.strip().upper()
                         for c in match.group(1).split(",")}
                if tok.start[0] == last_code_line:
                    suppressions.setdefault(last_code_line,
                                            set()).update(codes)
                else:
                    pending.append(codes)
            elif tok.type not in _LAYOUT:
                for codes in pending:
                    suppressions.setdefault(tok.start[0],
                                            set()).update(codes)
                pending.clear()
                last_code_line = tok.end[0]
    except (tokenize.TokenError, SyntaxError,
            IndentationError) as exc:
        return {}, (
            f"suppression comments unreadable "
            f"({type(exc).__name__}: {exc}); inline disables in this "
            f"file are being ignored"
        )
    return suppressions, None


def suppressed(code: str, patterns: Set[str]) -> bool:
    """True if ``code`` matches any suppression pattern."""
    code = code.upper()
    for pattern in sorted(patterns):
        if pattern == "ALL" or pattern == code:
            return True
        if pattern.endswith("X"):
            prefix = pattern.rstrip("X")
            if code.startswith(prefix) and len(code) == len(pattern):
                return True
    return False


@dataclass
class FileContext:
    """Everything a rule may inspect about one file.

    ``nodes`` holds every node of the tree, walked once in breadth-first
    order; rules and :meth:`parents` iterate it instead of walking the
    tree again.
    """

    rel: str  # posix path relative to the detected root
    tree: ast.AST
    nodes: List[ast.AST] = field(init=False)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None,
                                                       init=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))

    # -- path scoping ----------------------------------------------------

    @property
    def in_src(self) -> bool:
        """Inside the simulator package proper."""
        return self.rel.startswith("src/repro/")

    # -- AST helpers -----------------------------------------------------

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in self.nodes:
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing FunctionDef/AsyncFunctionDef, if any."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return None
