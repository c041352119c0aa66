"""Convenience drivers: build and run processors over workloads."""

from __future__ import annotations

import os
from typing import Optional, Union

from ..faults import FaultInjector, FaultSpec
from ..interconnect.stats import leakage_energy
from ..telemetry import EventKind, Telemetry, event_names
from ..wires import CANONICAL_SPECS
from ..workloads.annotate import annotated_trace
from .config import InterconnectConfig, ProcessorConfig
from .metrics import BenchmarkRun
from .processor import ClusteredProcessor


def _window_from_env(variable: str, default: int, field: str,
                     minimum: int) -> int:
    """``variable`` as an integer held to the plan's bound on ``field``."""
    text = os.environ.get(variable, str(default))
    try:
        if int(text) >= minimum:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"{variable}={text!r}: {field} must be an integer "
                     f">= {minimum}")


#: Default measured window (instructions) and warmup; the paper used
#: 100 M + 1 M on native hardware -- these defaults keep a pure-Python
#: run tractable and are overridable via the environment.
DEFAULT_INSTRUCTIONS = _window_from_env("REPRO_INSTRUCTIONS", 12000,
                                        "instructions", 1)
DEFAULT_WARMUP = _window_from_env("REPRO_WARMUP", 3000, "warmup", 0)
DEFAULT_SEED = 42

FaultSpecLike = Union[str, FaultSpec, None]

#: Attribute names of the ``run_start`` and ``run_end`` events.
_START_ATTRS = event_names("benchmark", "instructions", "seed", "warmup")
_END_ATTRS = event_names("benchmark", "committed", "cycles")


class AccountingError(RuntimeError):
    """A finished run's commit, energy or plane-state bookkeeping is off.

    Raised by :func:`simulate_benchmark` when an accounting identity
    fails; the message names the identity, the benchmark and both
    values.  A sweep records it as a failed plan (``reason="error"``),
    so the wrong result is never cached.
    """


def _require(identity: str, benchmark: str, reported, expected) -> None:
    if reported != expected:
        raise AccountingError(
            f"{identity} identity failed on {benchmark}: "
            f"{reported!r} reported against {expected!r} expected"
        )


def check_accounting(interconnect: InterconnectConfig, network,
                     benchmark: str, cycles: int) -> None:
    """Check a finished run's energy and plane-state bookkeeping.

    * Dynamic energy is the run's own per-bit energy (Table 2 overlaid
      with ``interconnect.wire_specs``) times each plane's weighted
      bits, summed in the same order, so the check is exact.
    * Ungated leakage is the wire inventory times the same catalog's
      leakage times ``cycles``.
    * Gated runs instead account every plane's four power states, which
      must cover the measured window exactly.
    """
    specs = dict(CANONICAL_SPECS)
    specs.update(interconnect.wire_specs or {})
    stats = network.stats
    expected = 0.0
    for wire_class, activity in stats.by_plane.items():
        expected += (activity.weighted_bits
                     * specs[wire_class].relative_dynamic_energy)
    _require("dynamic-energy", benchmark, stats.dynamic_energy(), expected)
    power = network.power
    if power is None:
        _require("leakage", benchmark, network.leakage_energy(cycles),
                 leakage_energy(network.wire_inventory(), cycles, specs))
        return
    for plane in power.power_report(cycles):
        _require(
            f"residency ({plane.link} {plane.wire_class.value})", benchmark,
            plane.active_cycles + plane.waking_cycles
            + plane.drowsy_cycles + plane.gated_cycles, cycles,
        )


def _build_injector(fault_spec: FaultSpecLike, seed: int,
                    telemetry: Optional[Telemetry] = None
                    ) -> Optional[FaultInjector]:
    """An injector for a spec (string or object), or None when null."""
    if fault_spec is None:
        return None
    spec = (FaultSpec.parse(fault_spec)
            if isinstance(fault_spec, str) else fault_spec)
    if spec.is_null:
        return None
    return FaultInjector(spec, seed=seed, telemetry=telemetry)


def build_processor(interconnect: InterconnectConfig, benchmark: str,
                    num_clusters: int = 4,
                    seed: int = DEFAULT_SEED,
                    latency_scale: float = 1.0,
                    fault_spec: FaultSpecLike = None,
                    telemetry: Optional[Telemetry] = None,
                    gating: Optional[str] = None
                    ) -> ClusteredProcessor:
    """A processor wired to one synthetic SPEC2k benchmark.

    ``num_clusters`` and ``latency_scale`` size the machine; every other
    core parameter is Table 1's (:class:`ProcessorConfig`).
    """
    config = ProcessorConfig(num_clusters=num_clusters,
                             latency_scale=latency_scale)
    trace = annotated_trace(benchmark, seed, config.icache_size_kb,
                            config.icache_assoc)
    cpu = ClusteredProcessor(
        config, interconnect, trace,
        faults=_build_injector(fault_spec, seed, telemetry),
        telemetry=telemetry, gating=gating,
    )
    cpu.prewarm()
    return cpu


def simulate_benchmark(interconnect: InterconnectConfig, benchmark: str,
                       instructions: int = DEFAULT_INSTRUCTIONS,
                       warmup: int = DEFAULT_WARMUP,
                       num_clusters: int = 4,
                       seed: int = DEFAULT_SEED,
                       latency_scale: float = 1.0,
                       fault_spec: FaultSpecLike = None,
                       telemetry: Optional[Telemetry] = None,
                       gating: Optional[str] = None
                       ) -> BenchmarkRun:
    """Run one benchmark under one interconnect; returns measured numbers.

    ``fault_spec`` (a :class:`FaultSpec` or its string form) injects
    wire-plane faults; the run is still fully deterministic for a fixed
    seed, and the degradation counters land in the run's extra stats.
    ``telemetry`` observes the run (events + metrics) without changing
    any reproduced number -- traced and untraced runs are bit-identical.
    ``gating`` (a gating-policy string, see :mod:`repro.power`) enables
    dynamic plane power management; its counters join the extras and
    the leakage figure becomes state-weighted.  Every run ends with
    :func:`check_accounting`, which raises :class:`AccountingError` if
    the run's energy or plane-state bookkeeping is inconsistent, and
    with the commit-window identity: ``instructions`` commit, plus less
    than one commit group.
    """
    cpu = build_processor(interconnect, benchmark, num_clusters, seed,
                          latency_scale, fault_spec=fault_spec,
                          telemetry=telemetry, gating=gating)
    try:
        if telemetry is not None and telemetry.enabled:
            telemetry.emit(cpu.cycle, EventKind.RUN_START, _START_ATTRS,
                           (benchmark, instructions, seed, warmup))
        stats = cpu.run(instructions, warmup=warmup)
        if telemetry is not None and telemetry.enabled:
            telemetry.emit(cpu.cycle, EventKind.RUN_END, _END_ATTRS,
                           (benchmark, stats.committed, stats.cycles))
        degradation = cpu.network.degradation_report()
        power = cpu.network.power
        power_extra = () if power is None else (
            ("plane_wakes", float(power.total_wakes())),
            ("plane_gate_events", float(power.total_gate_entries())),
            ("gated_wire_cycle_share", power.gated_share(stats.cycles)),
            ("wake_energy", power.wake_energy()),
        )
        run = BenchmarkRun(
            benchmark=benchmark,
            instructions=stats.committed,
            cycles=stats.cycles,
            interconnect_dynamic=cpu.network.stats.dynamic_energy(),
            interconnect_leakage=cpu.network.leakage_energy(stats.cycles),
            extra=(
                ("redirects", float(stats.redirects)),
                ("loads", float(stats.loads)),
                ("stores", float(stats.stores)),
                ("cross_cluster_operands",
                 float(stats.cross_cluster_operands)),
                ("false_dependences", float(cpu.lsq.false_dependences)),
                ("loads_disambiguated", float(cpu.lsq.loads_disambiguated)),
                ("early_ram_starts", float(cpu.lsq.early_ram_starts)),
                ("narrow_coverage", cpu.narrow_predictor.coverage),
                ("narrow_false_rate", cpu.narrow_predictor.false_narrow_rate),
                ("operand_transfers",
                 float(cpu.network.selector.operand_transfers)),
                ("operand_narrow", float(cpu.network.selector.operand_narrow)),
                ("retransmissions", float(degradation.retransmissions)),
                ("corrupted_segments",
                 float(degradation.corrupted_segments)),
                ("retry_escalations", float(degradation.retry_escalations)),
                ("degraded_reroutes", float(degradation.degraded_reroutes)),
                ("degraded_selections",
                 float(degradation.degraded_selections)),
                ("planes_killed", float(degradation.planes_killed)),
            ) + power_extra,
        )
        width = cpu.config.commit_width
        if not instructions <= stats.committed < instructions + width:
            raise AccountingError(
                f"commit-window identity failed on {benchmark}: "
                f"{stats.committed} committed against a window of "
                f"{instructions} at commit width {width}")
        # After the extras: settling the gating window (as the residency
        # check does) may count gate entries the extras must not see.
        check_accounting(interconnect, cpu.network, benchmark, stats.cycles)
        return run
    finally:
        cpu.release()
