"""Plane gating: the never-gate contract.

The gated runs themselves are golden-corpus entries (``tests/golden``),
pinned while a cycle-stepping reference agreed bit for bit, across
every gating policy kind, crossed with fault injection and telemetry;
``tests/golden/test_golden.py`` checks each of them.

Pinned here: the never-gate policy builds no power manager at all, so
a plan with ``gating_policy="never"`` (or ``""``, or none) is
bit-identical to a run with no gating argument, whether the processor
skips idle cycles or steps through every one.
"""

import pytest

from golden import INSTRUCTIONS, WARMUP, label, load, run_digest
from repro.core.models import model
from repro.core.processor import ClusteredProcessor
from repro.core.simulation import build_processor, simulate_benchmark
from repro.harness.runner import ExperimentPlan, simulate_plan
from repro.power import GatingSpecError, PlanePowerManager, parse_gating


def _step_every_cycle(cpu, target_committed, max_cycles):
    """``ClusteredProcessor._run_until`` without idle skipping."""
    while cpu.stats.committed < target_committed:
        cpu.step()


class TestNeverGate:
    """'never' must be indistinguishable from no gating at all."""

    #: How the processor advances: one ``step()`` per cycle, as a
    #: cycle-stepping reference would ("scalar"), or its own run loop,
    #: which jumps over idle cycles ("event").
    @pytest.mark.parametrize("stepping", ["scalar", "event"])
    @pytest.mark.parametrize("spelling", ["never", "", None])
    def test_never_bit_identical_to_ungated(self, stepping, spelling,
                                            monkeypatch):
        if stepping == "scalar":
            monkeypatch.setattr(ClusteredProcessor, "_run_until",
                                _step_every_cycle)
        base = simulate_benchmark(
            model("X").config, "gzip", instructions=INSTRUCTIONS,
            warmup=WARMUP,
        )
        # None: the plan omits the field.
        spelt = {} if spelling is None else {"gating_policy": spelling}
        plan = ExperimentPlan("X", "gzip", instructions=INSTRUCTIONS,
                              warmup=WARMUP, **spelt)
        assert plan.gating is None
        never = simulate_plan(plan)
        assert base == never
        assert run_digest(never) == load()[label()]["digests"]["run"]
        # No power extras: the manager is never even constructed.
        assert "plane_wakes" not in dict(never.extra)

    def test_never_builds_no_manager(self):
        for spelling in ("never", "", None):
            spelt = {} if spelling is None else {"gating_policy": spelling}
            plan = ExperimentPlan("X", "gzip", **spelt)
            cpu = build_processor(plan.interconnect(), "gzip",
                                  gating=plan.gating)
            assert cpu.network.power is None, spelling
        gated = build_processor(
            model("X").config, "gzip",
            gating=parse_gating("idle:drowsy=16,gate=64"))
        assert isinstance(gated.network.power, PlanePowerManager)

    def test_never_parses_to_none(self):
        for spelling in ("never", "", " never "):
            assert parse_gating(spelling) is None, spelling
        with pytest.raises(GatingSpecError, match="takes no parameters"):
            parse_gating("never:x=1")
