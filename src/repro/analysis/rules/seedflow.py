"""SIM5xx -- seed and RNG provenance (whole-program).

Every random draw in the simulator must be derivable from an
``ExperimentPlan`` seed: that is what makes a cached result equal a
fresh run and a parallel sweep equal a serial one.  SIM101 already
bans the process-global RNG, but a *seeded* ``random.Random(x)`` is
just as broken when ``x`` does not flow from a plan -- a constant, a
config default, or a forgotten parameter two modules away produces
streams that no plan field can reproduce or invalidate.

SIM501 runs on the project call graph: the facts pass records a
local taint verdict for every RNG construction (seed-ish name or
attribute -> tainted; a parameter -> chase the callers), and the
checker walks ``src/`` call sites until it finds plan-derived evidence
or runs out of graph.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ..facts import ModuleFacts, TAINTED, param_of, seedish
from ..findings import Finding
from ..project import ProjectContext
from ..registry import register_project

_MAX_PARAM_DEPTH = 8


def _in_scope(facts: ModuleFacts) -> bool:
    return facts.rel.startswith("src/repro/")


def _full_qual(facts: ModuleFacts, caller: str) -> str:
    return f"{facts.module}.{caller}" if caller else facts.module


def _caller_rel(ctx: ProjectContext, caller_qual: str) -> str:
    rel = ctx.rel_of(caller_qual)
    if rel is not None:
        return rel
    # Module-level call sites key the call graph by module name.
    return ctx.modules.get(caller_qual, "")


def _param_is_plan_fed(ctx: ProjectContext, qual: str, param: str,
                       depth: int,
                       seen: Set[Tuple[str, str]]) -> bool:
    """Does any ``src/`` caller feed ``param`` of ``qual`` a seed?"""
    if depth > _MAX_PARAM_DEPTH or (qual, param) in seen:
        return False
    seen.add((qual, param))
    if seedish(param):
        # The parameter's own name states the contract; callers that
        # violate it hand the lie to SIM501 at their own RNG sites.
        return True
    func = ctx.function(qual)
    if func is None or param not in func["params"]:
        return False
    index = func["params"].index(param)
    for caller_qual, edge in ctx.callers_of(qual):
        if not _caller_rel(ctx, caller_qual).startswith("src/"):
            continue
        state = edge["kw_taints"].get(param)
        if state is None and index < len(edge["pos_taints"]):
            state = edge["pos_taints"][index]
        if state is None:
            continue
        if state == TAINTED:
            return True
        upstream = param_of(state)
        if upstream is not None and _param_is_plan_fed(
                ctx, caller_qual, upstream, depth + 1, seen):
            return True
    return False


@register_project("SIM501",
                  "every RNG must be seeded from a plan-derived value")
def check_rng_provenance(ctx: ProjectContext) -> Iterator[Finding]:
    """Taint-track plan seeds into every RNG construction.

    ``random.Random``/``numpy.random.default_rng``-style factories in
    ``src/repro/`` must take a seed that flows (possibly through
    helper parameters, chased across modules on the call graph) from a
    seed-ish source -- ``plan.seed``, ``backoff_seed(...)``, a
    ``seed`` parameter.  Unseeded, constant-seeded and OS-entropy
    generators all break the cached-equals-fresh contract.
    """
    for rel in sorted(ctx.facts):
        facts = ctx.facts[rel]
        if not _in_scope(facts):
            continue
        for site in facts.rng_sites:
            factory = site["factory"]
            state = site["state"]
            message = None
            if state == "entropy":
                message = (
                    f"{factory}() draws OS entropy; its stream can "
                    f"never be reproduced from an ExperimentPlan seed"
                )
            elif state == "missing":
                message = (
                    f"{factory}() constructed without a seed; the "
                    f"stream falls back to OS entropy and no plan "
                    f"field can reproduce it"
                )
            elif state == "U":
                message = (
                    f"{factory}() seeded from a constant or "
                    f"plan-independent expression; derive the seed "
                    f"from plan.seed (or backoff_seed) so caching and "
                    f"replay stay sound"
                )
            else:
                param = param_of(state)
                if param is not None:
                    qual = _full_qual(facts, site["caller"])
                    if not _param_is_plan_fed(ctx, qual, param, 0,
                                              set()):
                        message = (
                            f"{factory}() seeded from parameter "
                            f"'{param}' of {site['caller'] or rel}, "
                            f"but no src/ call site feeds that "
                            f"parameter a plan-derived seed"
                        )
            if message is not None:
                yield Finding(code="SIM501", message=message, path=rel,
                              line=site["line"], col=site["col"])
