"""The golden corpus: pinned digests of short simulator runs.

``corpus.json`` maps a label to the plan it runs (an
:class:`~repro.harness.ExperimentPlan` as a dict), its
:class:`~repro.core.metrics.BenchmarkRun` (for readable diffs) and the
sha256 digests of its result: the run with every field and extra
(floats by ``repr``, as ``perfbench/checks.py`` digests them) and, for
traced entries, the telemetry event stream and the metrics snapshot.
Its ``scaling`` section pins the explorer's node scaling the same way:
for every technology node and profile, the digests of the ``repr`` of
:func:`~repro.wires.scaling.node_scaling` and
:func:`~repro.wires.scaling.scale_catalog`, next to the scale factors.

``test_golden.py`` re-runs every entry and compares.  Run this file to
(re-)pin the corpus after an intended change of simulated results::

    PYTHONPATH=src python tests/golden/golden.py            # every entry
    PYTHONPATH=src python tests/golden/golden.py LABEL...   # just these

A scaling label is ``n<node>/<profile>``, e.g. ``n16/itrs``.

No cache bump goes with a re-pin: the simulator edit that moved the
results has already changed ``repro.harness.runner.CACHE_VERSION``, a
digest of the simulator's source (DESIGN §7, §11).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.metrics import BenchmarkRun
from repro.core.models import MODEL_NAMES
from repro.harness import ExperimentPlan, simulate_plan
from repro.interconnect.selection import PolicyFlags
from repro.telemetry import RingBufferSink, Telemetry, TraceEvent
from repro.wires.scaling import (
    SCALING_PROFILES,
    SUPPORTED_NODES,
    node_scaling,
    scale_catalog,
)

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

#: Every entry's measured window.
INSTRUCTIONS = 800
WARMUP = 200

#: One gating policy per kind, plus an aggressive idle variant that
#: reaches GATED (not just DROWSY) inside the short window.
POLICIES = (
    "idle:drowsy=64,gate=256",
    "idle:drowsy=16,gate=64",
    "ewma:halflife=32,thr=0.5",
    "ewma:halflife=64,thr=0.5,gthr=0.25,hold=16",
)

FAULT_SPECS = (
    "kill=B@*@600",
    "kill=PW@*@500",
    "kill=L@c0@400",
    "ber=2e-4",
    "derate=PW:1.3,B:1.1",
    "kill=B@*@600; ber=1e-4; retries=2",
)

#: The fault spec of the traced faulted runs.
TRACED_FAULTS = "kill=B@*@600; ber=1e-4"


class Measured(NamedTuple):
    """One entry's result, its digests and, if traced, its events."""

    run: BenchmarkRun
    digests: Dict[str, str]
    events: Optional[Tuple[TraceEvent, ...]] = None


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def run_digest(run: BenchmarkRun) -> str:
    """sha256 of a run's canonical form (all fields, floats by repr)."""
    return _sha([[name, getattr(run, name)]
                 for name in BenchmarkRun.__dataclass_fields__])


def run_fields(run: BenchmarkRun) -> Dict[str, object]:
    """A run as a JSON-ready dict, extras keyed by name."""
    fields = {name: getattr(run, name)
              for name in BenchmarkRun.__dataclass_fields__}
    fields["extra"] = dict(run.extra)
    return fields


def label_of(spec: Dict[str, object]) -> str:
    """A readable, unique label derived from an entry's inputs."""
    plan = ExperimentPlan.from_dict(spec["plan"])
    parts = [plan.model_name, plan.benchmark]
    if plan.num_clusters != 4:
        parts.append(f"{plan.num_clusters}cl")
    if plan.seed != 42:
        parts.append(f"seed{plan.seed}")
    parts += [text for text in (plan.fault_spec, plan.gating_policy)
              if text]
    if plan.policy_tag != "default":
        parts.append(plan.policy_tag)
    if spec.get("traced"):
        parts.append("traced")
    return "/".join(parts)


def _entry(model_name="X", benchmark="gzip", *, traced=False,
           **plan) -> Dict[str, object]:
    spec: Dict[str, object] = {"plan": ExperimentPlan(
        model_name, benchmark, instructions=INSTRUCTIONS, warmup=WARMUP,
        **plan).to_dict()}
    if traced:
        spec["traced"] = True
    return spec


def label(model_name="X", benchmark="gzip", **kwargs) -> str:
    """The label of the entry with these inputs (as :func:`_entry`)."""
    return label_of(_entry(model_name, benchmark, **kwargs))


def entries() -> Dict[str, Dict[str, object]]:
    """The corpus inputs: label -> entry (digests not yet filled)."""
    specs = [_entry(name, bench)
             for name in MODEL_NAMES for bench in ("gzip", "mcf", "art")]
    specs += [
        _entry(benchmark="gcc"),
        _entry(seed=7),
        _entry(policy_tag=PolicyFlags(
            memory_dependence_speculation=True).tag()),
        # The only flag that reads the workload's value stream.
        _entry(policy_tag=PolicyFlags(lwire_frequent_value=True).tag()),
        _entry("III", num_clusters=16),
        _entry(num_clusters=16),
        _entry(num_clusters=16, fault_spec="kill=PW@*@500"),
        _entry(num_clusters=16, gating_policy=POLICIES[1]),
        _entry(num_clusters=16, fault_spec="kill=PW@*@500",
               gating_policy=POLICIES[1]),
    ]
    for spec in FAULT_SPECS:
        specs.append(_entry(fault_spec=spec))
        specs += [_entry(fault_spec=spec, gating_policy=policy)
                  for policy in POLICIES[:2]]
    specs += [_entry(name, gating_policy=policy)
              for name in ("II", "VII", "X") for policy in POLICIES]
    specs += [_entry(benchmark=bench, gating_policy=POLICIES[1])
              for bench in ("art", "mcf")]
    specs += [
        _entry(traced=True),
        _entry(fault_spec=TRACED_FAULTS, traced=True),
        _entry(gating_policy=POLICIES[1], traced=True),
        _entry(fault_spec=TRACED_FAULTS, gating_policy=POLICIES[1],
               traced=True),
        _entry("dp@n45:B144+L36:cw1"),
        _entry("dp@n16:B144+L36:cw1"),
        # The ablation benches' policy flags.
        _entry("VII", policy_tag=PolicyFlags().without_lwire_uses().tag()),
        _entry("V", policy_tag=PolicyFlags(pw_store_data=False).tag()),
    ]
    corpus = {label_of(spec): spec for spec in specs}
    assert len(corpus) == len(specs), "duplicate corpus labels"
    return corpus


def simulate(spec: Dict[str, object]) -> Measured:
    """Run one entry and digest its result."""
    telemetry = (Telemetry(sink=RingBufferSink(capacity=None))
                 if spec.get("traced") else None)
    run = simulate_plan(ExperimentPlan.from_dict(spec["plan"]), telemetry)
    digests = {"run": run_digest(run)}
    if telemetry is None:
        return Measured(run, digests)
    events = telemetry.events()
    digests["events"] = _sha([e.to_json() for e in events])
    digests["metrics"] = _sha(telemetry.metrics.snapshot())
    return Measured(run, digests, events)


@functools.lru_cache(maxsize=None)
def scaling() -> Dict[str, Dict[str, object]]:
    """Every node's scale factors and scaling digests, by label."""
    pins = {}
    for node in SUPPORTED_NODES:
        for profile in SCALING_PROFILES:
            factors = node_scaling(node, profile)
            pins[f"n{node}/{profile}"] = {
                "factors": dataclasses.asdict(factors),
                "digests": {
                    "node_scaling": _sha(repr(factors)),
                    "scale_catalog": _sha(repr(scale_catalog(node, profile))),
                },
            }
    return pins


def load() -> Dict[str, Dict[str, object]]:
    return json.loads(CORPUS_PATH.read_text())["entries"]


def load_scaling() -> Dict[str, Dict[str, object]]:
    return json.loads(CORPUS_PATH.read_text())["scaling"]


@functools.lru_cache(maxsize=None)
def measured(label: str) -> Measured:
    """A pinned entry, simulated at most once per process."""
    return simulate(load()[label])


def assert_pinned(label: str) -> None:
    """The entry's digests equal the pinned ones, with a readable diff."""
    pinned = load()[label]["digests"]
    result = measured(label)
    if result.digests == pinned:
        return
    was, now = load()[label]["run"], run_fields(result.run)
    moved = [f"{name}: {was[name]!r} -> {now[name]!r}"
             for name in now if name != "extra" and now[name] != was[name]]
    moved += [f"extra[{key}]: {was['extra'].get(key)!r} -> "
              f"{now['extra'].get(key)!r}"
              for key in sorted(set(was["extra"]) | set(now["extra"]))
              if was["extra"].get(key) != now["extra"].get(key)]
    digests = [name for name in pinned
               if result.digests.get(name) != pinned[name]]
    raise AssertionError(f"{label}: {', '.join(digests)} digest(s) moved"
                         + "".join(f"\n  {line}" for line in moved))


def assert_scaling_pinned(label: str) -> None:
    """A node's scaling digests are unchanged, with a readable diff."""
    pinned, now = load_scaling()[label], scaling()[label]
    if now["digests"] == pinned["digests"]:
        return
    was = pinned["factors"]
    moved = [f"{name}: {was[name]!r} -> {value!r}"
             for name, value in now["factors"].items()
             if value != was[name]]
    digests = [name for name in pinned["digests"]
               if now["digests"][name] != pinned["digests"][name]]
    raise AssertionError(f"{label}: {', '.join(digests)} digest(s) moved"
                         + "".join(f"\n  {line}" for line in moved))


def pin(labels=None) -> None:
    """Run entries (and scaling labels) and write their digests."""
    data = (json.loads(CORPUS_PATH.read_text()) if CORPUS_PATH.exists()
            else {})
    corpus = data.get("entries", {})
    pins = data.get("scaling", {})
    fresh = entries()
    for label in labels or [*fresh, *scaling()]:
        if label in scaling():
            pins[label] = scaling()[label]
        else:
            spec = fresh[label]
            result = simulate(spec)
            corpus[label] = {**spec, "run": run_fields(result.run),
                             "digests": result.digests}
        print(f"pinned {label}")
    corpus = {label: corpus[label] for label in fresh if label in corpus}
    pins = {label: pins[label] for label in scaling() if label in pins}
    CORPUS_PATH.write_text(json.dumps({"entries": corpus, "scaling": pins},
                                      indent=1) + "\n")


if __name__ == "__main__":
    pin(sys.argv[1:])
