"""File discovery and the one-pass lint.

simlint is a per-file analyzer: every rule sees one parsed file at a
time.  :func:`lint_paths` reads, parses and lints each file in turn,
in one process; the tree is walked once per file
(:attr:`FileContext.nodes`) and every rule iterates that list.  A cold
lint of the whole repository is fast enough (DESIGN.md §13) to need
no cache and no process pool.

Every rule always runs; ``--select`` filters findings afterwards.
Ordering is deterministic: findings sort by (path, line, col, code).
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .baseline import Baseline
from .context import FileContext, parse_suppressions, suppressed
from .findings import Finding
from .registry import all_rules

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__", ".git", ".repro_cache", "build", "dist", ".eggs",
    "node_modules",
}

#: Pseudo-rule code for files that cannot be analysed at all.
PARSE_ERROR_CODE = "SIM000"

#: Pseudo-rule code for files whose suppression comments cannot be
#: tokenized (inline disables are silently dead in such a file).
SUPPRESSION_ERROR_CODE = "SIM002"

#: Codes that bypass ``--select`` and inline suppression: they report
#: that the analysis itself is degraded, which no filter should hide.
PSEUDO_CODES = {PARSE_ERROR_CODE, SUPPRESSION_ERROR_CODE}


def find_root(start: Path) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else the parent).

    Relative paths in findings, suppression scoping (``src/repro/...``)
    and the default baseline location all hang off this root.
    """
    start = start.resolve()
    candidates = [start] if start.is_dir() else []
    candidates.extend(start.parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start if start.is_dir() else start.parent


#: Marker file: a directory holding one is skipped during discovery.
#: The lint-fixture corpus (deliberate violations the test suite and
#: ``--explain`` feed through the analyzer in throwaway trees) lives
#: behind one of these.
IGNORE_MARKER = ".simlint-ignore"


def _under_ignore_marker(candidate: Path, top: Path,
                         memo: Dict[Path, bool]) -> bool:
    for parent in candidate.parents:
        flag = memo.get(parent)
        if flag is None:
            flag = (parent / IGNORE_MARKER).is_file()
            memo[parent] = flag
        if flag:
            return True
        if parent == top:
            break
    return False


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered.

    Files explicitly named are always included; during directory
    walks, hidden/bookkeeping directories and anything below a
    ``.simlint-ignore`` marker are skipped.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    marker_memo: Dict[Path, bool] = {}
    for path in paths:
        path = path.resolve()
        if path.is_file():
            found: Iterable[Path] = [path]
        else:
            found = (
                candidate for candidate in path.rglob("*.py")
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in candidate.relative_to(path).parts)
                and not _under_ignore_marker(candidate, path,
                                             marker_memo)
            )
        for candidate in found:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    files.sort()
    return files


# Accumulator the engine fills while linting, not a hashed value
# type; mutability is the point here.
@dataclass  # simlint: disable=SIM401
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # gate these
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    #: Phase wall-times in seconds: discover/analyze/total.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> List[Tuple[str, int]]:
        counts = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return sorted(counts.items())


def _pseudo(code: str, rel: str, message: str) -> Finding:
    return Finding(code=code, message=message, path=rel, line=1, col=0)


def analyze_source(rel: str, source: str
                   ) -> Tuple[List[Finding], Dict[int, Set[str]]]:
    """One file's findings (pseudo codes included) and suppressions."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [_pseudo(PARSE_ERROR_CODE, rel,
                        f"could not analyse file: syntax error: "
                        f"{exc.msg} (line {exc.lineno})")], {}
    suppressions, supp_error = parse_suppressions(source)
    findings: List[Finding] = []
    if supp_error is not None:
        findings.append(_pseudo(SUPPRESSION_ERROR_CODE, rel, supp_error))
    ctx = FileContext(rel=rel, tree=tree)
    for rule in all_rules():
        findings.extend(rule.check(ctx))
    return findings, suppressions


def lint_paths(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    select: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Run every rule over every file under ``paths``.

    ``select`` restricts *reported* findings to the given codes (every
    rule still runs; pseudo codes SIM000/SIM002 always report).
    ``root`` overrides repo-root detection (tests use this).
    """
    if not paths:
        raise ValueError("lint_paths needs at least one path")
    if root is None:
        root = find_root(Path(paths[0]))
    total_start = time.perf_counter()
    result = LintResult()

    files = discover_files([Path(p) for p in paths])
    result.timings["discover"] = time.perf_counter() - total_start

    # Lint each file in turn; filter (select, then suppressions).
    analyze_start = time.perf_counter()
    raw: List[Finding] = []
    for file_path in files:
        try:
            rel = file_path.relative_to(root).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        result.files_checked += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raw.append(_pseudo(PARSE_ERROR_CODE, rel,
                               f"could not analyse file: unreadable: "
                               f"{exc}"))
            continue
        findings, suppressions = analyze_source(rel, source)
        for finding in findings:
            if finding.code not in PSEUDO_CODES:
                if select and finding.code not in select:
                    continue
                patterns = suppressions.get(finding.line)
                if patterns and suppressed(finding.code, patterns):
                    result.suppressed += 1
                    continue
            raw.append(finding)
    result.timings["analyze"] = time.perf_counter() - analyze_start

    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    if baseline is not None:
        result.findings, result.baselined = baseline.partition(raw)
    else:
        result.findings = raw
    result.timings["total"] = time.perf_counter() - total_start
    return result
