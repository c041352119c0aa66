"""File discovery and the three-phase lint schedule.

v2 of the engine runs whole-program analysis without giving up speed:

* **Phase 1 (parallel):** each file is parsed once and reduced to a
  payload -- per-file rule findings, the :class:`ModuleFacts` record
  the project passes consume, the suppression map, and any
  parse/suppression error.  Payloads are plain JSON, which makes them
  process-pool friendly (``jobs > 1`` fans files out over a
  ``ProcessPoolExecutor``) and cacheable (``.simlint-cache/`` keyed by
  content hash + analyzer signature; see :mod:`repro.analysis.cache`).
* **Phase 2 (sequential):** the linker builds the project symbol
  table and approximate call graph
  (:class:`~repro.analysis.project.ProjectContext`).
* **Phase 3:** project rules (SIM8xx) run over the linked
  context; their findings are cached under a key covering *every*
  file, because an edit in module A can move findings in module B.

Every rule always runs; ``--select`` filters findings afterwards, so
cache entries serve any select combination.  Ordering stays fully
deterministic: files sort by relative path, findings by
(path, line, col, code).
"""

from __future__ import annotations

import ast
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .baseline import Baseline
from .cache import (CACHE_DIR_NAME, LintCache, project_key,
                    source_key)
from .context import FileContext, parse_suppressions, suppressed
from .facts import ModuleFacts, extract_facts
from .findings import Finding
from .project import ProjectContext
from .registry import file_rules, project_rules

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
    #: Phase wall-times in seconds: discover/phase1/link/project/total.
    timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    project_cache_hit: bool = False
    jobs: int = 1

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> List[Tuple[str, int]]:
        counts = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return sorted(counts.items())


def _finding_json(finding: Finding) -> dict:
    return {"code": finding.code, "message": finding.message,
            "path": finding.path, "line": finding.line,
            "col": finding.col}


def _finding_from_json(data: dict) -> Finding:
    return Finding(code=data["code"], message=data["message"],
                   path=data["path"], line=int(data["line"]),
                   col=int(data["col"]))


def analyze_source(rel: str, source: str) -> dict:
    """Phase-1 reduction of one file to a JSON-able payload.

    Runs as the process-pool worker under ``--jobs``, so everything in
    and out must pickle cheaply: strings in, plain dicts out.
    """
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return {
            "error": f"syntax error: {exc.msg} (line {exc.lineno})",
            "suppression_error": None,
            "findings": [],
            "facts": None,
            "suppressions": {},
        }
    suppressions, supp_error = parse_suppressions(source)
    ctx = FileContext(
        path=Path(rel), rel=rel, source=source, tree=tree,
        suppressions=suppressions, suppression_error=supp_error,
    )
    findings: List[dict] = []
    for rule in file_rules():
        for finding in rule.check(ctx):
            findings.append(_finding_json(finding))
    facts = extract_facts(ctx)
    return {
        "error": None,
        "suppression_error": supp_error,
        "findings": findings,
        "facts": facts.to_json(),
        "suppressions": {
            str(line): sorted(patterns)
            for line, patterns in suppressions.items()
        },
    }


def _worker(item: Tuple[str, str]) -> Tuple[str, dict]:
    rel, source = item
    return rel, analyze_source(rel, source)


def _run_phase1(cold: List[Tuple[str, str]],
                jobs: int) -> Dict[str, dict]:
    """Analyze every cold file, fanning out when it pays off."""
    payloads: Dict[str, dict] = {}
    if jobs > 1 and len(cold) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(cold) // (jobs * 4))
            for rel, payload in pool.map(_worker, cold,
                                         chunksize=chunk):
                payloads[rel] = payload
    else:
        for rel, source in cold:
            payloads[rel] = analyze_source(rel, source)
    return payloads


def _run_project_rules(payloads: Dict[str, dict]) -> List[dict]:
    """Phases 2+3: link facts, run whole-program rules."""
    project = ProjectContext()
    for rel in sorted(payloads):
        payload = payloads[rel]
        if payload.get("facts") is None:
            continue
        project.add_module(ModuleFacts.from_json(payload["facts"]))
    project.link()
    findings: List[dict] = []
    for rule in project_rules():
        for finding in rule.check(project):
            findings.append(_finding_json(finding))
    return findings


def _pseudo_findings(rel: str, payload: dict) -> List[Finding]:
    found: List[Finding] = []
    if payload.get("error") is not None:
        found.append(Finding(
            code=PARSE_ERROR_CODE,
            message=f"could not analyse file: {payload['error']}",
            path=rel, line=1, col=0,
        ))
    if payload.get("suppression_error") is not None:
        found.append(Finding(
            code=SUPPRESSION_ERROR_CODE,
            message=payload["suppression_error"],
            path=rel, line=1, col=0,
        ))
    return found


def lint_paths(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    select: Optional[Set[str]] = None,
    root: Optional[Path] = None,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> LintResult:
    """Run every rule over every file under ``paths``.

    ``select`` restricts *reported* findings to the given codes (all
    rules still execute so cache entries stay select-independent;
    pseudo codes SIM000/SIM002 always report).  ``root`` overrides
    repo-root detection (tests use this).  ``jobs`` fans phase 1 out
    over processes; ``use_cache=False`` disables the on-disk cache.
    """
    if not paths:
        raise ValueError("lint_paths needs at least one path")
    if root is None:
        root = find_root(Path(paths[0]))
    total_start = time.perf_counter()
    result = LintResult(jobs=jobs)

    files = discover_files([Path(p) for p in paths])
    result.timings["discover"] = time.perf_counter() - total_start

    cache: Optional[LintCache] = None
    if use_cache:
        cache = LintCache(cache_dir or (root / CACHE_DIR_NAME))

    # Read every file once; sort hits from cold work.
    phase1_start = time.perf_counter()
    payloads: Dict[str, dict] = {}
    file_keys: Dict[str, str] = {}
    cold: List[Tuple[str, str]] = []
    for file_path in files:
        try:
            rel = file_path.relative_to(root).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        result.files_checked += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            payloads[rel] = {
                "error": f"unreadable: {exc}",
                "suppression_error": None,
                "findings": [], "facts": None, "suppressions": {},
            }
            continue
        key = source_key(source)
        file_keys[rel] = key
        cached = cache.load_file(rel, key) if cache else None
        if cached is not None:
            payloads[rel] = cached
        else:
            cold.append((rel, source))

    for rel, payload in _run_phase1(cold, jobs).items():
        payloads[rel] = payload
        if cache is not None:
            cache.store_file(rel, file_keys[rel], payload)
    result.timings["phase1"] = time.perf_counter() - phase1_start

    # Whole-program passes, cached over the complete file set.
    project_start = time.perf_counter()
    pkey = project_key(file_keys)
    project_findings: Optional[List[dict]] = None
    if cache is not None:
        project_findings = cache.load_project(pkey)
    if project_findings is None:
        project_findings = _run_project_rules(payloads)
        if cache is not None:
            cache.store_project(pkey, project_findings)
    result.timings["project"] = time.perf_counter() - project_start

    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        result.project_cache_hit = cache.project_hit

    # Filter (select, then suppressions), order, partition.
    raw: List[Finding] = []
    candidates: List[Finding] = []
    for rel in sorted(payloads):
        payload = payloads[rel]
        raw.extend(_pseudo_findings(rel, payload))
        candidates.extend(_finding_from_json(data)
                          for data in payload["findings"])
    candidates.extend(_finding_from_json(data)
                      for data in project_findings)
    for finding in candidates:
        if select and finding.code not in select:
            continue
        payload = payloads.get(finding.path)
        patterns = (payload or {}).get("suppressions", {}).get(
            str(finding.line))
        if patterns and suppressed(finding.code, set(patterns)):
            result.suppressed += 1
            continue
        raw.append(finding)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    if baseline is not None:
        result.findings, result.baselined = baseline.partition(raw)
    else:
        result.findings = raw
    result.timings["total"] = time.perf_counter() - total_start
    return result
