"""Plane gating: reference runs and the never-gate contract.

The power manager decides lazily (closed-form settlement of each
plane's state from its injection history) precisely so that the
processor -- which skips idle cycles entirely -- reaches the same
gate-down points, wake latencies and state-weighted leakage as a model
stepping every cycle.  Each gated run here checks a golden-corpus entry
(``tests/golden``) pinned while such a cycle-stepping reference agreed
bit for bit, across every gating policy kind, crossed with fault
injection (dead planes and gated planes merge into one avoid set) and
telemetry (the gate/wake events are part of the pinned stream).

Also pinned: the never-gate policy builds no power manager at all, so
``gating="never"`` is bit-identical to a run with no gating argument,
whether the processor skips idle cycles or steps through every one.
"""

import pytest

from golden import (FAULT_SPECS, INSTRUCTIONS, POLICIES, TRACED_FAULTS,
                    WARMUP, assert_digest, assert_pinned, label, load,
                    measured, run_digest)
from repro.core.models import model
from repro.core.processor import ClusteredProcessor
from repro.core.simulation import build_processor, simulate_benchmark
from repro.power import PlanePowerManager
from repro.telemetry import EventKind


class TestGatedHealthyRuns:
    @pytest.mark.parametrize("gating", POLICIES)
    def test_policies_match(self, gating):
        assert_pinned(label(gating_policy=gating))

    @pytest.mark.parametrize("gating", POLICIES[:2])
    @pytest.mark.parametrize("name", ["II", "VII", "X"])
    def test_models_match(self, name, gating):
        # II: PW-only (single ungateable bulk plane); VII: B+L; X: all
        # three planes.  Each flips which planes the manager may gate.
        assert_pinned(label(name, gating_policy=gating))

    @pytest.mark.parametrize("bench", ["art", "mcf"])
    def test_benchmarks_match(self, bench):
        assert_pinned(label(benchmark=bench, gating_policy=POLICIES[1]))

    def test_sixteen_clusters_match(self):
        assert_pinned(label(num_clusters=16, gating_policy=POLICIES[1]))

    def test_gating_engages_in_window(self):
        # Guard against a vacuous suite: the aggressive policy must
        # actually gate and wake planes inside the window.
        extra = dict(measured(label(gating_policy=POLICIES[1])).run.extra)
        assert extra["plane_wakes"] > 0
        assert extra["gated_wire_cycle_share"] > 0.0


class TestGatedFaultedRuns:
    """Dead planes and sleeping planes merge into one avoid set."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("gating", POLICIES[:2])
    def test_fault_specs_match(self, spec, gating):
        assert_pinned(label(fault_spec=spec, gating_policy=gating))

    def test_degraded_sixteen_clusters_match(self):
        assert_pinned(label(num_clusters=16, gating_policy=POLICIES[1],
                            fault_spec="kill=PW@*@500"))


class TestGatedTelemetry:
    TRACED = label(gating_policy=POLICIES[1], traced=True)

    def test_event_streams_identical(self):
        assert_digest(self.TRACED, "events")

    def test_power_events_present_and_identical(self):
        power_kinds = (EventKind.PLANE_GATED, EventKind.PLANE_WOKEN)
        kinds = {e.kind for e in measured(self.TRACED).events}
        assert set(power_kinds) <= kinds, "no gate/wake events in the window"
        assert_digest(self.TRACED, "events")

    def test_metrics_snapshots_identical(self):
        assert_digest(self.TRACED, "metrics")

    def test_traced_run_equals_untraced_run(self):
        # Telemetry observes gating without perturbing it.
        untraced = label(gating_policy=POLICIES[1])
        assert measured(self.TRACED).run == measured(untraced).run

    def test_faulted_gated_event_streams_identical(self):
        assert_pinned(label(gating_policy=POLICIES[1],
                            fault_spec=TRACED_FAULTS, traced=True))


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
        never = simulate_benchmark(
            model("X").config, "gzip", instructions=INSTRUCTIONS,
            warmup=WARMUP, gating=spelling,
        )
        assert base == never
        assert run_digest(never) == load()[label()]["digests"]["run"]
        # No power extras: the manager is never even constructed.
        assert "plane_wakes" not in dict(never.extra)

    def test_never_builds_no_manager(self):
        cpu = build_processor(model("X").config, "gzip", gating="never")
        assert cpu.network.power is None
        gated = build_processor(model("X").config, "gzip",
                                gating="idle:drowsy=16,gate=64")
        assert isinstance(gated.network.power, PlanePowerManager)
