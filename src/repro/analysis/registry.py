"""The rule registry.

A rule is a callable ``(FileContext) -> Iterable[Finding]`` registered
with :func:`register`; it sees one file at a time and iterates the
file's node list (``ctx.nodes``) rather than walking the tree again.

Registration happens at import time of :mod:`repro.analysis.rules`;
the engine iterates :func:`all_rules`.  Codes group into families by
their hundreds digit (SIM1xx ordering and async hygiene, SIM3xx
exceptions, SIM4xx model hygiene).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .findings import Finding

_CODE_RE = re.compile(r"^SIM\d{3}$")

RuleFunc = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: code, one-line summary, checker function."""

    code: str
    summary: str
    check: RuleFunc

    @property
    def family(self) -> str:
        """"SIM3xx" for SIM301 etc."""
        return f"{self.code[:4]}xx"


_REGISTRY: Dict[str, Rule] = {}


def register(code: str, summary: str) -> Callable[[RuleFunc], RuleFunc]:
    """Decorator: register a per-file checker for ``code``."""
    if not _CODE_RE.match(code):
        raise ValueError(f"rule code must look like SIM123, got {code!r}")

    def decorator(func: RuleFunc) -> RuleFunc:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code=code, summary=summary, check=func)
        return func

    return decorator


def _ensure_loaded() -> None:
    # Importing the rules package populates the registry; the local
    # import breaks the registry <-> rules cycle.
    if not _REGISTRY:
        from . import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Optional[Rule]:
    _ensure_loaded()
    return _REGISTRY.get(code.upper())
