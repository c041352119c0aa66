"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's tables and figures, runs individual simulations,
and lists the available models/benchmarks.  All experiment commands go
through the cached runner, so repeated invocations are cheap.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from ._version import package_version
from .core.models import MODEL_NAMES, all_models, model
from .core.simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from .harness import (
    FAULT_AXIS,
    GATING_AXIS,
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    render_axis_sweep,
    render_claims,
    render_figure3,
    render_table,
    render_table3,
    render_table4,
    run_axis_sweep,
    run_claims,
    run_figure3,
    run_table3,
    run_table4,
    simulate_plan,
)
from .harness.axissweep import DEFAULT_BENCHMARKS, AxisSweepResult
from .wires import table2_rows
from .workloads.spec2k import BENCHMARK_NAMES, PROFILES


def _ranged(flag: str, convert, accepts, bounds: str):
    """argparse type: a number (``convert``) that ``accepts`` admits.

    Both rejections name ``flag`` and state ``bounds``, so every
    numeric flag gets a call of its own.
    """
    kind = "a whole number" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects {kind} ({bounds}), got {text!r}"
            ) from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(
                f"{flag} must be {bounds}, got {text!r}"
            )
        return value

    return parse


def _plan_number(flag: str, field: str, convert, bounds: str):
    """:func:`_ranged` for plan field ``field``: a number is accepted
    exactly when a plan takes it, and a plan stores it unchanged."""

    def accepts(value) -> bool:
        try:
            ExperimentPlan("I", "gzip", **{field: value})
        except ValueError:
            return False
        return True

    return _ranged(flag, convert, accepts, bounds)


def _plan_spec(field: str):
    """argparse type: a spec for plan field ``field``, accepted when a
    plan takes it and parsed to the canonical form the plan stores."""

    def parse(text: str) -> str:
        try:
            return getattr(ExperimentPlan("I", "gzip", **{field: text}), field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _service_fault_spec(text: str) -> str:
    """argparse type: service-level chaos spec, canonicalized."""
    from .service import ServiceFaultSpec, ServiceFaultSpecError

    try:
        return ServiceFaultSpec.parse(text).canonical()
    except ServiceFaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# The types of flags that more than one subcommand takes.
_WORKERS = _ranged("--workers", int, lambda n: n >= 1,
                   "at least 1, where 1 runs serially")
_RUN_TIMEOUT = _ranged("--run-timeout", float, lambda s: s > 0,
                       "positive seconds")
_MAX_RETRIES = _ranged("--max-retries", int, lambda n: n >= 0,
                       "non-negative")
_TIMEOUT = _ranged("--timeout", float, lambda s: s > 0, "positive seconds")
_PORT = _ranged("--port", int, lambda n: 0 <= n <= 65535,
                "a TCP port in [0, 65535]")
_GATING = _plan_spec("gating_policy")


def _add_window_args(parser: argparse.ArgumentParser) -> None:
    """The measurement window and seed every simulating command takes."""
    parser.add_argument(
        "--instructions", default=DEFAULT_INSTRUCTIONS,
        type=_plan_number("--instructions", "instructions", int,
                          "at least 1"),
        help="measured instructions per benchmark",
    )
    parser.add_argument(
        "--warmup", default=DEFAULT_WARMUP,
        type=_plan_number("--warmup", "warmup", int, "non-negative"),
        help="warmup instructions per benchmark",
    )
    parser.add_argument(
        "--seed", default=DEFAULT_SEED,
        type=_ranged("--seed", int, lambda n: True, "any integer"),
        help=f"workload RNG seed (default: {DEFAULT_SEED})",
    )


def _add_axis_args(parser: argparse.ArgumentParser) -> None:
    """The fault and gating axes.  On 'faults'/'power', the swept
    axis's flag appends a 'custom' row and the other applies to every
    row."""
    parser.add_argument(
        "--fault-spec", type=_plan_spec("fault_spec"), default="",
        metavar="SPEC",
        help="wire-fault injection spec, e.g. "
             "'ber=1e-6;kill=L@*@2000;derate=PW:1.5;retries=4'",
    )
    parser.add_argument(
        "--gating", dest="gating_policy", type=_GATING, default="",
        metavar="POLICY",
        help="plane gating policy: 'never', "
             "'idle:drowsy=64,gate=256' or "
             "'ewma:halflife=64,thr=0.5' (default: never)",
    )


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    """Every flag that describes one plan; dests are plan field names
    so :func:`_plan_from_args` can read them back."""
    parser.add_argument("--clusters", dest="num_clusters", default=4,
                        type=_plan_number("--clusters", "num_clusters",
                                          int, "at least 1"))
    parser.add_argument("--latency-scale", default=1.0,
                        type=_plan_number("--latency-scale",
                                          "latency_scale", float,
                                          "finite and positive"))
    _add_window_args(parser)
    _add_axis_args(parser)


def _add_benchmarks_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, metavar="NAME",
        choices=BENCHMARK_NAMES,
        help="benchmark subset (default: all 23)",
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """How a local runner executes: fan-out, isolation, cache, tracing."""
    parser.add_argument(
        "--workers", type=_WORKERS, default=1, metavar="N",
        help="processes to fan cache misses across (default: 1, serial)",
    )
    parser.add_argument(
        "--run-timeout", type=_RUN_TIMEOUT, default=None,
        metavar="SECONDS",
        help="kill any single run exceeding this wall clock "
             "(forces crash-isolated workers)",
    )
    parser.add_argument(
        "--max-retries", type=_MAX_RETRIES, default=0, metavar="N",
        help="retries (with exponential backoff) for crashed or "
             "timed-out workers before a run is declared failed",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect and print telemetry for this invocation "
             "(simulator events for 'run', harness profiling for sweeps)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome-trace JSON (Perfetto / chrome://tracing) "
             "of this invocation to PATH; implies --telemetry",
    )


def _int_tuple(text: str):
    """argparse type: comma-separated integers -> tuple."""
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Microarchitectural Wire Management "
                    "for Performance and Power in Partitioned "
                    "Architectures' (HPCA 2005)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table 3/4 interconnect models")
    sub.add_parser("benchmarks", help="list the 23 workload profiles")
    sub.add_parser("table2", help="print Table 2 (wire parameters)")

    for name, desc in (
        ("figure3", "regenerate Figure 3 (per-benchmark IPCs)"),
        ("table3", "regenerate Table 3 (4-cluster models)"),
        ("table4", "regenerate Table 4 (16-cluster models)"),
        ("claims", "regenerate the prose claims of Sections 1/4/5.3"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_window_args(p)
        _add_benchmarks_arg(p)
        _add_runner_args(p)

    p = sub.add_parser("run", help="simulate one benchmark on one model")
    p.add_argument("--model", default="I", choices=MODEL_NAMES)
    p.add_argument("--benchmark", default="gzip", choices=BENCHMARK_NAMES,
                   metavar="NAME")
    _add_plan_args(p)
    _add_runner_args(p)

    for name, desc in (
        ("faults", "degradation sweep: one model under injected wire "
                   "faults"),
        ("power", "plane-gating power sweep: leakage/ED^2/IPC trade-off "
                  "table over gating policies"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--model", default="X", choices=MODEL_NAMES)
        _add_window_args(p)
        _add_benchmarks_arg(p)
        _add_runner_args(p)
        _add_axis_args(p)

    p = sub.add_parser(
        "trace",
        help="trace one simulation: cycle-stamped events, Chrome-trace "
             "JSON export, per-plane/decision-reason summary",
    )
    p.add_argument("model", choices=MODEL_NAMES,
                   help="interconnect model to simulate")
    p.add_argument("--benchmark", default="gzip", choices=BENCHMARK_NAMES,
                   metavar="NAME")
    _add_plan_args(p)
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the Chrome-trace JSON here (load in Perfetto or "
             "chrome://tracing)",
    )
    p.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="also stream raw events as JSONL to PATH",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry snapshot after the summary",
    )

    p = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service job server (DESIGN.md "
             "section 12): bounded admission, retry budgets, circuit "
             "breaker, resumable jobs",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=_PORT, default=8642,
                   help="bind port; 0 picks an ephemeral port "
                        "(default: 8642)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="result cache directory (jobs and chaos state "
                        "live beside it); default: the shared cache")
    p.add_argument("--queue-capacity", default=16, metavar="N",
                   type=_ranged("--queue-capacity", int,
                                lambda n: n >= 1, "at least 1"),
                   help="admission queue bound; submissions past it "
                        "get 429 + Retry-After (default: 16)")
    p.add_argument("--workers", type=_WORKERS, default=2, metavar="N",
                   help="crash-isolated worker processes per job "
                        "(default: 2)")
    p.add_argument("--run-timeout", type=_RUN_TIMEOUT, default=300.0,
                   metavar="SECONDS",
                   help="kill any single run past this wall clock "
                        "(default: 300)")
    p.add_argument("--max-retries", type=_MAX_RETRIES, default=2,
                   metavar="N",
                   help="per-run retries inside a sweep (default: 2)")
    p.add_argument("--job-retries", default=1, metavar="N",
                   type=_ranged("--job-retries", int, lambda n: n >= 0,
                                "non-negative"),
                   help="whole-job requeue budget after crash/timeout "
                        "failures (default: 1)")
    p.add_argument("--breaker-window", default=20, metavar="N",
                   type=_ranged("--breaker-window", int,
                                lambda n: n >= 1, "at least 1"),
                   help="run outcomes in the breaker's sliding window "
                        "(default: 20)")
    p.add_argument("--breaker-threshold", default=0.5,
                   type=_ranged("--breaker-threshold", float,
                                lambda f: 0 < f <= 1, "in (0, 1]"),
                   metavar="FRACTION",
                   help="crash fraction that trips the breaker into "
                        "cache-only mode (default: 0.5)")
    p.add_argument("--breaker-cooldown", default=30.0, metavar="SECONDS",
                   type=_ranged("--breaker-cooldown", float,
                                lambda s: s > 0, "positive seconds"),
                   help="OPEN dwell before a half-open probe "
                        "(default: 30)")
    p.add_argument("--service-faults", type=_service_fault_spec,
                   default="", metavar="SPEC",
                   help="chaos injection spec, e.g. "
                        "'kill-run=1;stall-dispatch=0.5;drop-conn=2'")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job log lines")

    p = sub.add_parser(
        "submit",
        help="submit a model x benchmark sweep to a running server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_PORT, default=8642)
    p.add_argument("--models", nargs="+", default=["I"],
                   choices=MODEL_NAMES, metavar="MODEL",
                   help="interconnect models to sweep (default: I)")
    p.add_argument("--priority", type=int, default=0,
                   help="admission priority (higher dequeues first)")
    p.add_argument("--retry-budget", default=None, metavar="N",
                   type=_ranged("--retry-budget", int, lambda n: n >= 0,
                                "non-negative"),
                   help="override the server's job requeue budget")
    p.add_argument("--no-wait", action="store_true",
                   help="return after admission instead of polling "
                        "the job to completion")
    p.add_argument("--timeout", type=_TIMEOUT, default=600.0,
                   metavar="SECONDS",
                   help="when waiting, give up after this long "
                        "(default: 600)")
    _add_plan_args(p)
    _add_benchmarks_arg(p)

    p = sub.add_parser(
        "explore",
        help="design-space exploration: node-scaled wire catalogs and "
             "the ED^2 Pareto frontier over heterogeneous plane mixes "
             "(DESIGN.md section 14)",
    )
    p.add_argument("--nodes", type=_int_tuple, default=(45, 32, 22),
                   metavar="NM,NM,...",
                   help="technology nodes to search, in nm "
                        "(default: 45,32,22)")
    p.add_argument("--budget", default=64, metavar="N",
                   type=_ranged("--budget", int, lambda n: n >= 1,
                                "at least 1"),
                   help="max design points to evaluate; larger spaces "
                        "fall back to seeded sampling + refinement "
                        "(default: 64)")
    p.add_argument("--topologies", default="xbar4",
                   metavar="TOPO,TOPO,...",
                   help="topologies to search: xbar4 and/or ring16 "
                        "(default: xbar4)")
    p.add_argument("--b-wires", type=_int_tuple, default=(144, 288),
                   metavar="N,N,...",
                   help="B-Wire count options, bidirectional totals "
                        "(default: 144,288)")
    p.add_argument("--pw-wires", type=_int_tuple, default=(0, 288),
                   metavar="N,N,...",
                   help="PW-Wire count options; 0 = no plane "
                        "(default: 0,288)")
    p.add_argument("--l-wires", type=_int_tuple, default=(0, 36),
                   metavar="N,N,...",
                   help="L-Wire count options; 0 = no plane "
                        "(default: 0,36)")
    p.add_argument("--gating", type=_GATING, nargs="*",
                   default=None, metavar="POLICY",
                   help="gating-policy axis, space-separated (e.g. "
                        "--gating never 'idle:drowsy=64,gate=256'); "
                        "default: ungated only")
    p.add_argument("--fraction", default=0.2,
                   type=_ranged("--fraction", float, lambda f: 0 < f < 1,
                                "strictly between 0 and 1"),
                   metavar="F",
                   help="interconnect share of baseline chip energy "
                        "(the paper's tables use 0.10/0.20; "
                        "default: 0.2)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write every evaluated point "
                        "(dominance-ranked) as CSV to PATH")
    p.add_argument("--submit", action="store_true",
                   help="route plan waves through a running "
                        "'repro serve' instead of simulating locally")
    p.add_argument("--host", default="127.0.0.1",
                   help="sweep-service host for --submit")
    p.add_argument("--port", type=_PORT, default=8642,
                   help="sweep-service port for --submit")
    p.add_argument("--timeout", type=_TIMEOUT, default=600.0,
                   metavar="SECONDS",
                   help="per-wave wait when submitting (default: 600)")
    _add_window_args(p)
    _add_benchmarks_arg(p)
    _add_runner_args(p)

    p = sub.add_parser(
        "status",
        help="show a job's status, or server health with no job id",
    )
    p.add_argument("job_id", nargs="?", default=None,
                   help="job to inspect (omit for server health + "
                        "job list)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_PORT, default=8642)

    # "lint" is dispatched before parsing (its arguments belong to the
    # simlint parser); registered here so it shows up in --help.
    sub.add_parser(
        "lint",
        help="simlint: simulator-invariant static analysis "
             "(see 'repro lint --list-rules')",
    )
    return parser


def _cmd_models() -> str:
    rows = [
        [m.name, m.description, f"{m.relative_metal_area():.1f}"]
        for m in all_models()
    ]
    return render_table(["Model", "Link composition", "Rel metal area"],
                        rows, title="Interconnect models (Tables 3-4):")


def _cmd_benchmarks() -> str:
    rows = [
        [name, "fp" if PROFILES[name].fp_frac > 0 else "int",
         f"{PROFILES[name].working_set_kb} KB"]
        for name in BENCHMARK_NAMES
    ]
    return render_table(["Benchmark", "Kind", "Working set"], rows,
                        title="Synthetic SPEC2k-like workloads:")


def _cmd_table2() -> str:
    rows = [
        [f"{r.wire_class.value}-Wires", f"{r.relative_delay:.1f}",
         r.crossbar_latency, r.ring_hop_latency,
         f"{r.relative_leakage:.2f}", f"{r.relative_dynamic:.2f}"]
        for r in table2_rows()
    ]
    return render_table(
        ["Wire", "Rel delay", "Crossbar", "Ring hop", "Rel leakage",
         "Rel dynamic"],
        rows, title="Table 2: wire implementations",
    )


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(args.telemetry or args.trace_out)


def _make_runner(args: argparse.Namespace,
                 profiler=None) -> ExperimentRunner:
    cache = ResultCache(enabled=not args.no_cache)
    return ExperimentRunner(
        cache=cache, workers=args.workers, run_timeout=args.run_timeout,
        max_retries=args.max_retries, profiler=profiler,
    )


def _plan_from_args(args: argparse.Namespace,
                    **names: object) -> ExperimentPlan:
    """The plan the plan flags in ``args`` describe; ``names`` fills
    in what they do not (the model, and the benchmark for sweeps)."""
    values = {f.name: getattr(args, f.name) for f in fields(ExperimentPlan)
              if hasattr(args, f.name)}
    values.update(names)
    return ExperimentPlan(**values)


def _new_telemetry():
    from .telemetry import RingBufferSink, Telemetry

    return Telemetry(enabled=True, sink=RingBufferSink(capacity=None))


def _trace_metadata(plan: ExperimentPlan) -> dict:
    return {
        "model": plan.model_name,
        "benchmark": plan.benchmark,
        "seed": plan.seed,
        "fault_spec": plan.fault_spec,
        "gating": plan.gating_policy,
    }


def _cmd_trace(args: argparse.Namespace) -> str:
    from .telemetry import (
        JsonlSink,
        render_summary,
        summarize,
        write_chrome_trace,
    )

    plan = _plan_from_args(args, model_name=args.model)
    telemetry = _new_telemetry()
    run = simulate_plan(plan, telemetry=telemetry)
    events = list(telemetry.events())
    lines = [
        f"traced model {args.model} / {args.benchmark}: "
        f"{run.instructions} instructions, {run.cycles} cycles, "
        f"IPC {run.ipc:.3f}",
        "",
        render_summary(summarize(events), cycles=run.cycles),
    ]
    if args.out:
        write_chrome_trace(args.out, events,
                           metadata=_trace_metadata(plan))
        lines.append("")
        lines.append(f"chrome trace written to {args.out} "
                     f"(load in Perfetto or chrome://tracing)")
    if args.events_out:
        with JsonlSink(args.events_out) as sink:
            for event in events:
                sink.emit(event)
        lines.append(f"raw events written to {args.events_out} (JSONL)")
    if args.metrics:
        lines.append("")
        lines.append(telemetry.metrics.render())
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    """One plan: through the cached runner, or with ``--telemetry``
    simulated live (uncached) with a tracer.

    Telemetry never changes a reproduced number, so both paths print
    the same figures for the same plan.
    """
    plan = _plan_from_args(args, model_name=args.model)
    telemetry = _new_telemetry() if _wants_telemetry(args) else None
    if telemetry is None:
        run = _make_runner(args).run_many([plan])[plan]
    else:
        run = simulate_plan(plan, telemetry=telemetry)
    lines = [
        f"model {args.model} ({model(args.model).description}), "
        f"{plan.num_clusters} clusters, benchmark {args.benchmark}",
        f"IPC {run.ipc:.3f}  ({run.instructions} instructions, "
        f"{run.cycles} cycles)",
        f"interconnect dynamic energy (rel units) "
        f"{run.interconnect_dynamic:.0f}",
    ]
    extra = run.extra_stats()
    lines.append(
        f"redirects {extra['redirects']:.0f}, "
        f"false LS-bit deps {extra['false_dependences']:.0f}, "
        f"narrow coverage {extra['narrow_coverage']:.1%}"
    )
    if plan.fault_spec:
        lines.append(
            f"faults ({plan.fault_spec}): "
            f"retransmissions {extra.get('retransmissions', 0):.0f}, "
            f"escalations {extra.get('retry_escalations', 0):.0f}, "
            f"reroutes {extra.get('degraded_reroutes', 0):.0f}, "
            f"degraded selections "
            f"{extra.get('degraded_selections', 0):.0f}, "
            f"planes killed {extra.get('planes_killed', 0):.0f}"
        )
    if plan.gating_policy:
        lines.append(
            f"gating ({plan.gating_policy}): "
            f"leakage (rel units) {run.interconnect_leakage:.0f}, "
            f"wakes {extra.get('plane_wakes', 0):.0f}, "
            f"gate entries {extra.get('plane_gate_events', 0):.0f}, "
            f"gated share "
            f"{extra.get('gated_wire_cycle_share', 0):.1%}, "
            f"wake energy {extra.get('wake_energy', 0):.1f}"
        )
    if telemetry is not None:
        from .telemetry import render_summary, summarize, write_chrome_trace

        lines.append("")
        lines.append(render_summary(summarize(telemetry.events()),
                                    cycles=run.cycles))
        if args.trace_out:
            write_chrome_trace(args.trace_out, telemetry.events(),
                               metadata=_trace_metadata(plan))
            lines.append("")
            lines.append(f"chrome trace written to {args.trace_out}")
    return "\n".join(lines)


#: The axis each sweep subcommand sweeps.
_SWEEP_AXES = {"faults": FAULT_AXIS, "power": GATING_AXIS}


def _cmd_axis_sweep(args: argparse.Namespace,
                    runner: ExperimentRunner) -> AxisSweepResult:
    """``faults``/``power``: the default rows of the subcommand's axis,
    plus a "custom" row when that axis's flag is set; the other axis's
    flag applies to every row."""
    axis = _SWEEP_AXES[args.command]
    benchmarks = tuple(args.benchmarks or DEFAULT_BENCHMARKS)
    base = _plan_from_args(args, model_name=args.model,
                           benchmark=benchmarks[0])
    rows = list(axis.rows)
    if getattr(base, axis.field):
        rows.append(("custom", getattr(base, axis.field)))
    return run_axis_sweep(runner, axis, base, rows=rows,
                          benchmarks=benchmarks, workers=args.workers)


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service import CircuitBreaker, SweepService, run_service

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    service = SweepService(
        cache_dir=cache_dir, host=args.host, port=args.port,
        queue_capacity=args.queue_capacity, workers=args.workers,
        run_timeout=args.run_timeout, max_retries=args.max_retries,
        job_retry_budget=args.job_retries,
        breaker=CircuitBreaker(window=args.breaker_window,
                               threshold=args.breaker_threshold,
                               cooldown=args.breaker_cooldown),
        faults=args.service_faults or None,
        verbose=not args.quiet,
    )
    run_service(service)
    return 0


def _submit_plans(args: argparse.Namespace) -> List[ExperimentPlan]:
    benchmarks = args.benchmarks or list(BENCHMARK_NAMES)
    return [
        _plan_from_args(args, model_name=model_name, benchmark=benchmark)
        for model_name in args.models
        for benchmark in benchmarks
    ]


def _service_failure(args: argparse.Namespace, exc: Exception,
                     what: str) -> int:
    """Report a sweep-service failure (a ``ServiceError`` or an
    ``OSError``) and return its exit code."""
    from .service import Backpressure

    if isinstance(exc, Backpressure):
        print(f"rejected: {exc.message} (Retry-After: "
              f"{exc.retry_after}s)", file=sys.stderr)
        return 3
    if isinstance(exc, OSError):
        print(f"cannot reach {args.host}:{args.port}: {exc} "
              f"(is 'repro serve' running?)", file=sys.stderr)
        return 2
    print(f"{what}{exc}", file=sys.stderr)
    return 2


def _print_job(job: dict, attempt: str) -> None:
    print(f"job {job['job_id']}: {job['state']} "
          f"({job['plans']} plan(s), attempt {attempt})")
    summary = job.get("summary")
    if summary:
        print(f"  executed {summary['executed']}, "
              f"cache hits {summary['cache_hits']}, "
              f"failed {summary['failed']}")
    if job.get("manifest"):
        print(job["manifest"])


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    plans = _submit_plans(args)
    try:
        if args.no_wait:
            job = client.submit(plans, priority=args.priority,
                                retry_budget=args.retry_budget)
        else:
            job = client.submit_and_wait(
                plans, priority=args.priority,
                retry_budget=args.retry_budget, timeout=args.timeout,
            )
    except (ServiceError, OSError) as exc:
        return _service_failure(args, exc, "submission failed: ")
    _print_job(job, f"{job['attempts']}")
    return 0 if job["state"] in ("queued", "running", "done") else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            _print_job(job, f"{job['attempts']}/{job['retry_budget'] + 1}")
            return 0 if job["state"] != "failed" else 1
        health = client.health()
        print(f"server {args.host}:{args.port}: "
              f"breaker {health['breaker']} "
              f"(crash rate {health['crash_rate']:.0%}), "
              f"queue {health['queue_depth']}/"
              f"{health['queue_capacity']}, "
              f"{health['jobs']} job(s) known")
        for job in client.jobs():
            print(f"  {job['job_id']}  {job['state']:<9s} "
                  f"{job['plans']} plan(s)")
        return 0
    except (ServiceError, OSError) as exc:
        return _service_failure(args, exc, "")


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        EvaluationSettings,
        SearchSpace,
        explore,
        runner_executor,
        service_executor,
    )
    from .explore.report import frontier_table, to_csv

    topologies = tuple(part for part in args.topologies.split(",") if part)
    # Canonicalized by the argparse type; dedupe preserving order.
    gating_policies = tuple(dict.fromkeys(args.gating or ())) or ("",)
    try:
        space = SearchSpace(
            nodes=tuple(args.nodes),
            b_options=tuple(args.b_wires),
            pw_options=tuple(args.pw_wires),
            l_options=tuple(args.l_wires),
            topologies=topologies,
            gating_policies=gating_policies,
        )
    except ValueError as exc:
        print(f"bad search space: {exc}", file=sys.stderr)
        return 2
    settings = EvaluationSettings(
        benchmarks=tuple(args.benchmarks or BENCHMARK_NAMES),
        instructions=args.instructions, warmup=args.warmup,
        seed=args.seed, interconnect_fraction=args.fraction,
    )

    profiler = None
    if _wants_telemetry(args):
        from .harness.profiling import HarnessProfiler

        profiler = HarnessProfiler()

    if args.submit:
        from .service import ServiceClient, ServiceError

        client = ServiceClient(host=args.host, port=args.port)
        execute = service_executor(client, timeout=args.timeout)
        service_failures = (ServiceError, OSError)
    else:
        runner = _make_runner(args, profiler=profiler)
        execute = runner_executor(runner, workers=args.workers)
        service_failures = ()

    try:
        result = explore(space, settings, execute,
                         budget=args.budget, seed=args.seed,
                         profiler=profiler)
    except service_failures as exc:
        return _service_failure(args, exc, "exploration failed: ")

    print(frontier_table(result))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(result))
        print(f"wrote {len(result.evaluated)} evaluated point(s) "
              f"to {args.csv}")
    _finish_profiled(args, profiler)
    return 1 if result.failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter owns its argument surface (paths, --format,
        # --baseline, ...); forward everything after "lint" verbatim
        # instead of teaching argparse to ignore it.
        from .analysis.simlint import main as simlint_main

        return simlint_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    command = args.command
    listings = {"models": _cmd_models, "benchmarks": _cmd_benchmarks,
                "table2": _cmd_table2}
    if command in listings:
        print(listings[command]())
        return 0
    if command in ("run", "trace"):
        print(_cmd_run(args) if command == "run" else _cmd_trace(args))
        return 0
    services = {"serve": _cmd_serve, "submit": _cmd_submit,
                "status": _cmd_status, "explore": _cmd_explore}
    if command in services:
        return services[command](args)

    # Sweep commands: --telemetry/--trace-out attach a wall-clock
    # harness profiler (cache probes, runs, workers) to the runner.
    profiler = None
    if _wants_telemetry(args):
        from .harness.profiling import HarnessProfiler

        profiler = HarnessProfiler()
    runner = _make_runner(args, profiler=profiler)

    kwargs = dict(benchmarks=args.benchmarks,
                  instructions=args.instructions, warmup=args.warmup,
                  seed=args.seed)
    failed = False
    if command in _SWEEP_AXES:
        result = _cmd_axis_sweep(args, runner)
        print(render_axis_sweep(result))
        failed = bool(result.report.failures)
    elif command == "figure3":
        print(render_figure3(run_figure3(runner, **kwargs)))
    elif command == "table3":
        print(render_table3(run_table3(runner, **kwargs)))
    elif command == "table4":
        print(render_table4(run_table4(runner, **kwargs)))
    elif command == "claims":
        print(render_claims(run_claims(runner, **kwargs)))
    else:  # pragma: no cover - argparse guards this
        return 2
    _finish_profiled(args, profiler)
    return 1 if failed else 0


def _finish_profiled(args: argparse.Namespace, profiler) -> None:
    if profiler is not None:
        print(profiler.summary())
        if args.trace_out:
            profiler.write(args.trace_out)
            print(f"harness trace written to {args.trace_out} "
                  f"(load in Perfetto or chrome://tracing)")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro models | head`
        sys.exit(0)
