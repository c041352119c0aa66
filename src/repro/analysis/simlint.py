"""The simlint command line.

``python -m repro.analysis.simlint [paths...]`` -- also reachable as
``repro lint``.  Exit status: 0 when every finding is baselined or
suppressed, 1 when new findings exist (or ``--check-baseline`` found
stale entries), 2 on usage errors (unknown rule code, unusable
baseline file).

The default baseline is ``simlint-baseline.json`` at the detected repo
root; it is only an allowlist -- ``--write-baseline`` regenerates it
from the current findings (new entries are stamped ``TODO: justify``
so un-rationalized entries stand out in review) and
``--check-baseline`` fails on entries no current finding uses, so
fixed violations cannot keep an open allowlist slot.

Performance knobs: ``--jobs N`` fans the per-file phase out over
processes, and the content-hashed cache under ``.simlint-cache/``
makes warm re-runs skip parsing entirely (``--no-cache`` /
``--cache-dir`` control it; ``--timings FILE`` records phase times).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .._version import package_version
from .baseline import Baseline, BaselineError
from .engine import LintResult, find_root, lint_paths
from .explain import explain
from .registry import all_rules, get_rule

BASELINE_NAME = "simlint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simulator-invariant static analysis "
                    "(determinism, exception and model hygiene, seed "
                    "provenance, units, async blocking)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro lint {package_version()}",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"], metavar="PATH",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to report (default: all; "
             "every rule still runs so the cache stays shared)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {BASELINE_NAME} at the repo "
             f"root, if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and "
             "exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print a rule's rationale and its bad/good fixture "
             "examples, then exit",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="also fail (exit 1) when the baseline carries stale "
             "entries that no current finding uses",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan per-file analysis out over N processes "
             "(default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk incremental cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: .simlint-cache at the repo "
             "root)",
    )
    parser.add_argument(
        "--timings", default=None, metavar="FILE",
        help="write a JSON phase-timing summary to FILE "
             "('-' for stdout)",
    )
    return parser


def _resolve_select(text: Optional[str]) -> Optional[set]:
    if text is None:
        return None
    codes = {c.strip().upper() for c in text.split(",") if c.strip()}
    unknown = sorted(c for c in codes if get_rule(c) is None)
    if unknown:
        raise ValueError(
            f"repro lint: unknown rule code(s): {', '.join(unknown)}; "
            f"use --list-rules to see what is registered"
        )
    return codes


def _render_human(result: LintResult, baseline_path: Optional[Path]
                  ) -> str:
    lines = [finding.render() for finding in result.findings]
    counts = ", ".join(f"{code} x{count}"
                       for code, count in result.counts_by_code())
    summary = (
        f"simlint: {len(result.findings)} finding(s)"
        + (f" ({counts})" if counts else "")
        + f", {len(result.baselined)} baselined"
        + f", {result.suppressed} suppressed inline"
        + f", {result.files_checked} file(s) checked"
    )
    if result.findings and baseline_path is None:
        summary += f"\n(no {BASELINE_NAME} found; all findings are new)"
    lines.append(summary)
    return "\n".join(lines)


def _render_json(result: LintResult, baseline_path: Optional[Path]
                 ) -> str:
    return json.dumps({
        "findings": [f.to_json() for f in result.findings],
        "baselined": [f.to_json() for f in result.baselined],
        "suppressed": result.suppressed,
        "files_checked": result.files_checked,
        "counts": dict(result.counts_by_code()),
        "baseline": str(baseline_path) if baseline_path else None,
        "ok": result.ok,
    }, indent=2, sort_keys=True)


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.summary}")
        doc = (rule.check.__doc__ or "").strip().splitlines()
        if doc:
            lines.append(f"        {doc[0].strip()}")
    return "\n".join(lines)


def _stale_baseline_entries(baseline: Baseline,
                            result: LintResult) -> List[dict]:
    """Entries whose allowance exceeds what this run actually used.

    A stale entry is a fixed violation still carrying its allowlist
    slot -- it would silently absorb the next *regression* with the
    same fingerprint, so ``--check-baseline`` fails on it until the
    entry is dropped (``--write-baseline`` regenerates).
    """
    used: dict = {}
    for finding in result.baselined:
        fingerprint = finding.fingerprint()
        used[fingerprint] = used.get(fingerprint, 0) + 1
    stale = []
    for fingerprint, entry in sorted(baseline.entries.items(),
                                     key=lambda item: (
                                         item[1]["path"],
                                         item[1]["code"],
                                         item[1]["message"])):
        unused = entry["count"] - used.get(fingerprint, 0)
        if unused > 0:
            stale.append({"fingerprint": fingerprint,
                          "unused": unused, **entry})
    return stale


def _write_timings(result: LintResult, destination: str) -> None:
    payload = json.dumps({
        "timings_s": {name: round(value, 4)
                      for name, value in sorted(result.timings.items())},
        "files_checked": result.files_checked,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "project_cache_hit": result.project_cache_hit,
        "jobs": result.jobs,
    }, indent=2, sort_keys=True)
    if destination == "-":
        print(payload)
    else:
        Path(destination).write_text(payload + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if args.explain is not None:
        text = explain(args.explain, find_root(Path.cwd()))
        if text is None:
            print(f"repro lint: unknown rule code "
                  f"{args.explain.upper()!r}; use --list-rules",
                  file=sys.stderr)
            return 2
        print(text)
        return 0
    try:
        select = _resolve_select(args.select)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    root = find_root(paths[0])

    baseline_path: Optional[Path] = None
    baseline: Optional[Baseline] = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    elif not args.no_baseline:
        candidate = root / BASELINE_NAME
        if candidate.is_file() or args.write_baseline:
            baseline_path = candidate
    if (baseline_path is not None and not args.no_baseline
            and not args.write_baseline):
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    if args.jobs < 1:
        print("repro lint: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.check_baseline and baseline is None:
        print("repro lint: --check-baseline needs a baseline file "
              "(none found and --no-baseline not applicable)",
              file=sys.stderr)
        return 2
    if args.check_baseline and select:
        print("repro lint: --check-baseline needs the full rule set; "
              "drop --select (a scoped run would call every "
              "out-of-scope entry stale)", file=sys.stderr)
        return 2

    result = lint_paths(
        paths, baseline=baseline, select=select, root=root,
        jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )

    if args.timings is not None:
        _write_timings(result, args.timings)

    if args.write_baseline:
        if baseline_path is None:
            baseline_path = root / BASELINE_NAME
        Baseline.from_findings(result.findings).save(baseline_path)
        print(f"simlint: wrote {len(result.findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    stale: List[dict] = []
    if args.check_baseline and baseline is not None:
        stale = _stale_baseline_entries(baseline, result)

    if args.format == "json":
        print(_render_json(result, baseline_path))
    else:
        print(_render_human(result, baseline_path))
    for entry in stale:
        print(f"stale baseline entry: {entry['path']}: "
              f"{entry['code']} {entry['message']} "
              f"({entry['unused']} unused of {entry['count']} "
              f"allowed) [{entry['fingerprint']}]",
              file=sys.stderr)
    if stale:
        print(f"simlint: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'}; regenerate with "
              f"--write-baseline (keep the notes)", file=sys.stderr)
    return 0 if result.ok and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
