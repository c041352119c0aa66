"""Chrome Trace Event Format export and validation.

Converts a simulator event stream into the JSON object format that
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) load
directly: a ``traceEvents`` array of instant (``ph: "i"``) events plus
one synthetic complete (``ph: "X"``) span covering the measured window
when the trace carries run boundaries.  Timestamps are simulator
*cycles* written into the ``ts`` microsecond field (1 cycle == 1 us in
the viewer); ``otherData.time_unit`` records that convention.

:func:`validate_chrome_trace` is the schema check shared by the test
suite and the CI fault-smoke job -- it returns a list of problems
instead of raising so CI output can show them all at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .events import EventKind, TraceEvent

#: Chrome trace phases this exporter produces / the validator accepts.
_KNOWN_PHASES = ("X", "i", "B", "E", "M", "C")

#: Simulator process/thread ids in the exported trace (one logical
#: timeline; per-category lanes come from ``cat`` filtering in the UI).
TRACE_PID = 0
TRACE_TID = 0


def chrome_events(events: Iterable[TraceEvent]) -> List[Dict[str, object]]:
    """Chrome-trace event dicts for a simulator event stream."""
    out: List[Dict[str, object]] = []
    run_start: Optional[TraceEvent] = None
    run_end: Optional[TraceEvent] = None
    for event in events:
        if event.kind is EventKind.RUN_START and run_start is None:
            run_start = event
        elif event.kind is EventKind.RUN_END:
            run_end = event
        out.append({
            "name": event.kind._value_,
            "cat": event.category,
            "ph": "i",
            "ts": event.cycle,
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "s": "t",
            "args": {k: v for k, v in event.attrs},
        })
    if run_start is not None and run_end is not None:
        out.append({
            "name": "simulation",
            "cat": "run",
            "ph": "X",
            "ts": run_start.cycle,
            "dur": max(0, run_end.cycle - run_start.cycle),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {k: v for k, v in run_end.attrs},
        })
    out.sort(key=lambda e: (e["ts"], e["name"]))
    return out


def chrome_trace(events: Iterable[TraceEvent],
                 metadata: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """The complete Chrome-trace JSON object."""
    other: Dict[str, object] = {"time_unit": "cycles"}
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": chrome_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: Union[str, Path],
                       events: Iterable[TraceEvent],
                       metadata: Optional[Dict[str, object]] = None
                       ) -> Path:
    """Serialize a trace to ``path``; returns the path written."""
    path = Path(path)
    trace = chrome_trace(events, metadata)
    path.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return path


def load_chrome_trace(path: Union[str, Path]) -> Dict[str, object]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_chrome_trace(data: object) -> List[str]:
    """Schema problems of a parsed Chrome-trace object ([] when valid).

    Checks the envelope, the per-event required fields, and that
    timestamps are non-negative numbers.  Kept dependency-free so the
    CI job can run it against ``repro trace`` output directly.
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: 'name' must be a non-empty string")
        cat = event.get("cat")
        if not isinstance(cat, str) or not cat:
            errors.append(f"{where}: 'cat' must be a non-empty string")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
        ts = event.get("ts")
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            errors.append(f"{where}: 'ts' must be a number")
        elif ts < 0:
            errors.append(f"{where}: 'ts' must be non-negative")
        for field_name in ("pid", "tid"):
            value = event.get(field_name)
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"{where}: {field_name!r} must be an int")
        if phase == "X":
            dur = event.get("dur")
            if isinstance(dur, bool) or not isinstance(dur, (int, float)):
                errors.append(f"{where}: 'X' event needs a numeric 'dur'")
            elif dur < 0:
                errors.append(f"{where}: 'dur' must be non-negative")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append(f"{where}: 'args' must be an object")
    return errors


def trace_categories(data: Dict[str, object]) -> List[str]:
    """Sorted distinct categories present in a parsed trace."""
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return []
    return sorted({
        event["cat"] for event in events
        if isinstance(event, dict) and isinstance(event.get("cat"), str)
    })


def instant_timestamps(data: Dict[str, object]) -> List[float]:
    """The ``ts`` stamps of instant events, in file order."""
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return []
    return [
        event["ts"] for event in events
        if isinstance(event, dict) and event.get("ph") == "i"
        and isinstance(event.get("ts"), (int, float))
    ]


def assert_valid_chrome_trace(data: object) -> None:
    """Raise ``ValueError`` with every schema problem found."""
    errors = validate_chrome_trace(data)
    if errors:
        raise ValueError(
            "invalid Chrome trace: " + "; ".join(errors[:10])
            + (f" (+{len(errors) - 10} more)" if len(errors) > 10 else "")
        )
