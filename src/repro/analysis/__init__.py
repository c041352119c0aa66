"""simlint: simulator-invariant static analysis.

The reproduction's headline numbers are only trustworthy if every run
is bit-deterministic.  ``simlint`` machine-checks that and the
simulator's other invariants on every commit instead of trusting
convention.  (Cache keys need no rule: a plan's key serializes every
field plus a digest of the simulator's source.)

* **SIM1xx determinism** -- no global-RNG draws, no wall clock outside
  the harness timing paths, no hash-ordered set iteration or ``id()``
  ordering feeding results.
* **SIM3xx exception hygiene** -- broad ``except`` only at annotated
  crash-isolation boundaries; ``ConfigError``, not ``KeyError``, for
  configuration lookups.
* **SIM4xx model hygiene** -- spec/plan/report dataclasses frozen, no
  mutable default arguments, no float-literal equality in metrics.

v2 adds whole-program passes over a linked project context (import
graph, symbol table, approximate call graph -- see
:mod:`repro.analysis.project`):

* **SIM5xx seed provenance** -- every RNG construction must be seeded
  from a plan-derived value (taint chased across the call graph).
* **SIM6xx physical units** -- wire/energy/stats API parameters carry
  units (builtin registry + ``# simlint: units(...)`` declarations);
  unit-incompatible arithmetic and unconverted cross-API handoffs are
  findings.
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
