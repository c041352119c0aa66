"""The rule registry.

Two kinds of rule register here:

* **file rules** -- callables ``(FileContext) -> Iterable[Finding]``
  via :func:`register`; they see one file at a time and run inside the
  (possibly parallel) per-file phase.
* **project rules** -- callables ``(ProjectContext) ->
  Iterable[Finding]`` via :func:`register_project`; they run after the
  linker has built the import/call graphs and may reason across
  modules.

Registration happens at import time of :mod:`repro.analysis.rules`;
the engine iterates :func:`file_rules` / :func:`project_rules`.  Codes
group into families by their hundreds digit (SIM1xx determinism,
SIM3xx exceptions, SIM4xx model hygiene, SIM5xx seed provenance,
SIM6xx physical units, SIM8xx async blocking).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .findings import Finding

_CODE_RE = re.compile(r"^SIM\d{3}$")

RuleFunc = Callable[..., Iterable[Finding]]

FILE_RULE = "file"
PROJECT_RULE = "project"


@dataclass(frozen=True)
class Rule:
    """A registered rule: code, one-line summary, checker function."""

    code: str
    summary: str
    check: RuleFunc
    kind: str = FILE_RULE

    @property
    def family(self) -> str:
        """"SIM1xx" for SIM101 etc."""
        return f"{self.code[:4]}xx"


_REGISTRY: Dict[str, Rule] = {}


def _register(code: str, summary: str, kind: str
              ) -> Callable[[RuleFunc], RuleFunc]:
    if not _CODE_RE.match(code):
        raise ValueError(f"rule code must look like SIM123, got {code!r}")

    def decorator(func: RuleFunc) -> RuleFunc:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code=code, summary=summary, check=func,
                               kind=kind)
        return func

    return decorator


def register(code: str, summary: str) -> Callable[[RuleFunc], RuleFunc]:
    """Decorator: register a per-file checker for ``code``."""
    return _register(code, summary, FILE_RULE)


def register_project(code: str, summary: str
                     ) -> Callable[[RuleFunc], RuleFunc]:
    """Decorator: register a whole-program checker for ``code``."""
    return _register(code, summary, PROJECT_RULE)


def _ensure_loaded() -> None:
    # Importing the rules package populates the registry; the local
    # import breaks the registry <-> rules cycle.
    if not _REGISTRY:
        from . import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule (both kinds), ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def file_rules() -> List[Rule]:
    """Per-file rules only, ordered by code."""
    return [rule for rule in all_rules() if rule.kind == FILE_RULE]


def project_rules() -> List[Rule]:
    """Whole-program rules only, ordered by code."""
    return [rule for rule in all_rules() if rule.kind == PROJECT_RULE]


def get_rule(code: str) -> Optional[Rule]:
    _ensure_loaded()
    return _REGISTRY.get(code.upper())
