"""simlint: simulator-invariant static analysis.

``simlint`` checks the code hazards that no run can catch, on every
commit.  Properties a run *can* check are checked by running:
determinism by the golden corpus (``tests/golden/``), whose every pin
must also reproduce in two fresh interpreters under different
``PYTHONHASHSEED`` values; cache keys by the simulator-source digest
every key carries; units by the energy and plane-residency identities
every run checks.

* **SIM104 output ordering** -- no unsorted dict iteration feeding
  reports, rendered tables or digests.
* **SIM107 async hygiene** -- no discarded tasks, no swallowed
  cancellation.
* **SIM3xx exception hygiene** -- broad ``except`` only at annotated
  crash-isolation boundaries; ``ConfigError``, not ``KeyError``, for
  configuration lookups.
* **SIM4xx model hygiene** -- spec/plan/report dataclasses frozen, no
  mutable default arguments, no float-literal equality in metrics.

Whole-program passes run over a linked project context (symbol table
and approximate call graph -- see :mod:`repro.analysis.project`):

* **SIM8xx async blocking** -- blocking calls (``time.sleep``, sync
  file I/O, sweep fan-out) written in or reachable from ``async def``
  bodies via sync helpers.

Run it as ``python -m repro.analysis.simlint src tests`` or via the
CLI as ``repro lint``.  Findings are suppressed inline with
``# simlint: disable=CODE`` (rationale comment expected) or allowlisted
in the committed ``simlint-baseline.json`` (``--check-baseline`` keeps
it free of stale entries).  Warm runs are incremental via the
content-hashed ``.simlint-cache/`` and parallel via ``--jobs``;
``--explain SIMxxx`` prints a rule's rationale with its test-backed
bad/good examples.
"""

from .baseline import Baseline
from .engine import LintResult, lint_paths
from .findings import Finding
from .registry import Rule, all_rules, get_rule

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
]
