"""Power telemetry: gate/wake events through the whole trace pipeline.

``plane_gated``/``plane_woken`` are discovered lazily (the manager
settles a plane's past when something asks about it), so beyond the
usual export round-trip these tests pin the monotonicity contract: the
export stamp is the discovery cycle, the effective cycle rides in the
attributes, and the resulting trace always validates.
"""

import json

from repro.core.models import model
from repro.core.simulation import simulate_benchmark
from repro.power import parse_gating
from repro.telemetry import (
    EventKind,
    RingBufferSink,
    Telemetry,
    chrome_trace,
    make_event,
    trace_categories,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.events import EVENT_CATEGORY

GATING = "idle:drowsy=16,gate=64"
POLICY = parse_gating(GATING)


def gated_trace_events():
    telemetry = Telemetry(enabled=True,
                          sink=RingBufferSink(capacity=None))
    simulate_benchmark(model("X").config, "gzip", instructions=800,
                      warmup=200, gating=POLICY, telemetry=telemetry)
    return list(telemetry.events()), telemetry


class TestPowerEventKinds:
    def test_power_kinds_have_a_category(self):
        assert EVENT_CATEGORY[EventKind.PLANE_GATED] == "power"
        assert EVENT_CATEGORY[EventKind.PLANE_WOKEN] == "power"

    def test_metrics_counters_increment(self):
        events, telemetry = gated_trace_events()
        snapshot = dict(telemetry.metrics.snapshot())
        gated = [e for e in events if e.kind is EventKind.PLANE_GATED]
        woken = [e for e in events if e.kind is EventKind.PLANE_WOKEN]
        assert gated and woken
        assert snapshot["power.plane_gated"] == len(gated)
        assert snapshot["power.plane_woken"] == len(woken)


class TestChromeRoundTrip:
    def test_gated_run_exports_valid_trace(self, tmp_path):
        events, _ = gated_trace_events()
        path = write_chrome_trace(tmp_path / "gated.json", events,
                                  metadata={"gating": GATING})
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []
        assert "power" in trace_categories(trace)
        assert trace["otherData"]["gating"] == GATING

    def test_power_attrs_survive_the_round_trip(self, tmp_path):
        events, _ = gated_trace_events()
        path = write_chrome_trace(tmp_path / "gated.json", events)
        trace = json.loads(path.read_text(encoding="utf-8"))
        exported = [e for e in trace["traceEvents"]
                    if e.get("cat") == "power"]
        assert exported
        gate_downs = [e for e in exported if e["name"] == "plane_gated"]
        wakes = [e for e in exported if e["name"] == "plane_woken"]
        assert gate_downs and wakes
        for entry in gate_downs:
            args = entry["args"]
            assert args["state"] in ("drowsy", "gated")
            assert args["plane"] in ("B", "PW", "L", "W")
            # Lazy discovery: the effective cycle rides in the args and
            # never exceeds the (monotonic) discovery stamp.
            assert args["cycle"] <= entry["ts"]
        for entry in wakes:
            assert entry["args"]["from"] in ("drowsy", "gated")

    def test_discovery_stamps_are_monotonic(self):
        events, _ = gated_trace_events()
        power_stamps = [e.cycle for e in events
                        if e.kind in (EventKind.PLANE_GATED,
                                      EventKind.PLANE_WOKEN)]
        assert power_stamps == sorted(power_stamps)

    def test_synthetic_power_events_validate(self):
        trace = chrome_trace([
            make_event(40, EventKind.PLANE_GATED,
                       {"link": "c0", "plane": "L", "state": "drowsy",
                        "cycle": 32}),
            make_event(55, EventKind.PLANE_WOKEN,
                       {"link": "c0", "plane": "L", "from": "drowsy",
                        "ready": 57, "forced": False}),
        ])
        assert validate_chrome_trace(trace) == []


class TestObserverEffect:
    def test_traced_gated_run_equals_untraced(self):
        # Re-pin the observer-effect contract with gating active: the
        # power manager consults telemetry.enabled, never the reverse.
        untraced = simulate_benchmark(model("X").config, "gzip",
                                      instructions=800, warmup=200,
                                      gating=POLICY)
        telemetry = Telemetry(enabled=True,
                              sink=RingBufferSink(capacity=None))
        traced = simulate_benchmark(model("X").config, "gzip",
                                    instructions=800, warmup=200,
                                    gating=POLICY, telemetry=telemetry)
        assert traced == untraced
