"""``repro lint --explain SIMxxx``: rule rationale with live examples.

A lint finding is only as good as the reviewer's ability to judge it;
``--explain`` prints what a rule checks, *why* the invariant matters
in this codebase (the checker's docstring), and a minimal bad/good
pair.  The examples are not prose: they are the fixture files under
``tests/analysis/fixtures/`` that the test suite actually lints
(``sim301_bad.py`` must produce SIM301, ``sim301_good.py`` must not),
so the explanation cannot drift from the analyzer's behaviour.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import List, Optional

from .registry import get_rule

#: Where the fixture pairs live, relative to the repo root.
FIXTURES_DIR = Path("tests") / "analysis" / "fixtures"

#: The first line of a fixture names the repo-relative path it is
#: linted under (rules scope themselves by package).
FIXTURE_PATH_PREFIX = "# fixture-path:"

#: Pseudo codes the engine emits itself; they have no registered rule
#: and no fixtures, but still deserve an explanation.
_PSEUDO_EXPLANATIONS = {
    "SIM000": (
        "the file could not be analysed at all",
        "The engine could not read or parse the file (I/O error,\n"
        "undecodable bytes, syntax error).  Nothing else can be\n"
        "checked, so the failure itself is the finding; it bypasses\n"
        "--select and inline suppressions.",
    ),
    "SIM002": (
        "the file's suppression comments are unreadable",
        "The token stream could not be read (tokenize.TokenError and\n"
        "friends), so every inline '# simlint: disable=...' in the\n"
        "file is silently dead.  Earlier versions swallowed this and\n"
        "re-reported deliberately-suppressed findings; now the\n"
        "degradation is a finding of its own.  It bypasses --select\n"
        "and inline suppressions.",
    ),
}


def fixture_path(root: Path, code: str, kind: str) -> Path:
    """Path of a rule's ``bad``/``good`` fixture under ``root``."""
    return root / FIXTURES_DIR / f"{code.lower()}_{kind}.py"


def fixture_target(source: str) -> Optional[str]:
    """The declared lint path of a fixture (its header line)."""
    first = source.splitlines()[0] if source else ""
    if first.startswith(FIXTURE_PATH_PREFIX):
        return first[len(FIXTURE_PATH_PREFIX):].strip()
    return None


def fixture_body(source: str) -> str:
    """Fixture source with the header line stripped for display."""
    lines = source.splitlines()
    if lines and lines[0].startswith(FIXTURE_PATH_PREFIX):
        lines = lines[1:]
    while lines and not lines[0].strip():
        lines = lines[1:]
    return "\n".join(lines).rstrip()


def _indent(text: str) -> str:
    return textwrap.indent(text, "    ")


def explain(code: str, root: Path) -> Optional[str]:
    """The full explanation text for ``code``, or None if unknown."""
    code = code.upper()
    if code in _PSEUDO_EXPLANATIONS:
        summary, rationale = _PSEUDO_EXPLANATIONS[code]
        return "\n".join([
            f"{code}: {summary}",
            "",
            rationale,
            "",
            "(engine pseudo-code; no fixtures)",
        ])
    rule = get_rule(code)
    if rule is None:
        return None
    lines: List[str] = [f"{rule.code}: {rule.summary}", ""]
    doc = textwrap.dedent(" " * 4 + (rule.check.__doc__ or "")).strip()
    if doc:
        lines.extend([doc, ""])
    for kind, title in (("bad", "flagged"), ("good", "clean")):
        path = fixture_path(root, rule.code, kind)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            continue
        target = fixture_target(source)
        where = f" (linted as {target})" if target else ""
        lines.append(f"example, {title}{where}:")
        lines.append(_indent(fixture_body(source)))
        lines.append("")
    return "\n".join(lines).rstrip()
