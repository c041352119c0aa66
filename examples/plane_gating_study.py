"""Leakage-aware plane power management (DESIGN.md section 15).

Sweeps the heterogeneous Model X under a ladder of gating policies --
always-on, lazy idle countdowns, traffic-EWMA hysteresis -- and prints
the leakage/IPC trade-off, the per-plane power-state residency, and the
gate/wake telemetry stream for the most aggressive policy.

Run:  python examples/plane_gating_study.py
"""

from repro.core.models import model
from repro.core.simulation import build_processor, simulate_benchmark
from repro.power import parse_gating
from repro.telemetry import EventKind, RingBufferSink, Telemetry

MODEL = "X"           # 144 B + 288 PW + 36 L: three gateable-ish planes
BENCHMARK = "gzip"
INSTRUCTIONS, WARMUP = 4000, 1000

AGGRESSIVE = parse_gating("idle:drowsy=32,gate=128")
POLICIES = (
    ("always-on", None),
    ("drowsy late", parse_gating("idle:drowsy=128,gate=512")),
    ("drowsy early", AGGRESSIVE),
    ("ewma", parse_gating("ewma:halflife=64,thr=0.5")),
)


def main() -> None:
    config = model(MODEL).config

    print(f"model {MODEL} / {BENCHMARK}, {INSTRUCTIONS} instructions")
    print()
    print(f"{'policy':<14} {'IPC':>6} {'leakage':>9} {'wakes':>6} "
          f"{'gated':>6}")
    base_leak = None
    for label, gating in POLICIES:
        run = simulate_benchmark(
            config, BENCHMARK, instructions=INSTRUCTIONS,
            warmup=WARMUP, gating=gating,
        )
        extra = run.extra_stats()
        leak = run.interconnect_leakage
        if base_leak is None:
            base_leak = leak
        print(f"{label:<14} {run.ipc:>6.3f} "
              f"{100 * leak / base_leak:>8.0f}% "
              f"{extra.get('plane_wakes', 0):>6.0f} "
              f"{extra.get('gated_wire_cycle_share', 0):>6.1%}")

    # Per-plane residency under the aggressive policy: B (the bulk
    # plane) must stay active; PW and L cycle through drowsy/gated.
    print()
    print(f"per-plane power-state residency ({AGGRESSIVE.canonical()}):")
    cpu = build_processor(config, BENCHMARK, gating=AGGRESSIVE)
    stats = cpu.run(INSTRUCTIONS, warmup=WARMUP)
    for row in cpu.network.power.power_report(stats.cycles):
        total = max(stats.cycles, 1)
        print(f"  {row.link:<8} {row.wire_class.value:>2}-plane "
              f"({row.wires:>3} wires): "
              f"active {row.active_cycles / total:>6.1%}  "
              f"drowsy {row.drowsy_cycles / total:>6.1%}  "
              f"gated {row.gated_cycles / total:>6.1%}  "
              f"wakes {row.wakes}")

    # The same decisions as telemetry: every gate-down and wake-up is
    # an event, so traces show exactly when and why a plane slept.
    telemetry = Telemetry(enabled=True,
                          sink=RingBufferSink(capacity=None))
    simulate_benchmark(config, BENCHMARK, instructions=INSTRUCTIONS,
                       warmup=WARMUP, gating=AGGRESSIVE, telemetry=telemetry)
    events = [e for e in telemetry.events()
              if e.kind in (EventKind.PLANE_GATED,
                            EventKind.PLANE_WOKEN)]
    print()
    print(f"power telemetry: {len(events)} gate/wake events; first 6:")
    for event in events[:6]:
        attrs = dict(event.attrs)
        what = (f"-> {attrs['state']}"
                if event.kind is EventKind.PLANE_GATED
                else f"wake from {attrs['from']}")
        print(f"  cycle {attrs.get('cycle', event.cycle):>6} "
              f"{attrs['link']:<8} {attrs['plane']:>2}-plane  {what}")


if __name__ == "__main__":
    main()
