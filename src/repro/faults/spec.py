"""Fault specifications: what can go wrong on the wire planes.

A :class:`FaultSpec` is a declarative, hashable description of the
faults injected into one simulation:

* ``ber`` -- base bit-error rate: the probability that any one bit is
  corrupted while crossing one link-length.  The effective per-plane
  rate scales with the wire class's relative delay (Table 2): sparsely
  repeated power-optimised PW-Wires have the weakest noise margins,
  fat low-swing L-Wires the strongest.
* ``kills`` -- permanent plane deaths: a wire class on a named link
  stops carrying traffic at a given cycle.
* ``derates`` -- process-variation latency derating: a plane's path
  latency is multiplied by a factor >= 1 (slow silicon, not dead
  silicon).
* ``retry_budget`` -- how many NACK/retransmission rounds a single
  segment may consume before the network escalates the fault to a
  permanent plane-kill on the offending link.

Specs round-trip through a compact canonical string
(``"ber=1e-06;kill=L@c0@2000;derate=PW:1.2;retries=4"``) so they can
ride in CLI flags and experiment-cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..wires import WireClass


class FaultSpecError(ValueError):
    """A fault specification string or field is malformed."""


@dataclass(frozen=True)
class PlaneKill:
    """Permanent loss of one wire plane on one link.

    ``link`` is a topology link name (``"c0"``, ``"cache"``,
    ``"ring:0-1"``) or ``"*"`` for every link in the network.  The
    plane stops granting traffic at ``cycle``.
    """

    wire_class: WireClass
    link: str = "*"
    cycle: int = 0

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultSpecError("kill cycle must be non-negative")
        if not self.link:
            raise FaultSpecError("kill link name must be non-empty")

    def clause(self) -> str:
        return f"kill={self.wire_class.value}@{self.link}@{self.cycle}"


@dataclass(frozen=True)
class FaultSpec:
    """Everything injected into one run; hashable and canonicalizable."""

    ber: float = 0.0
    kills: Tuple[PlaneKill, ...] = ()
    derates: Tuple[Tuple[WireClass, float], ...] = ()
    retry_budget: int = 4

    def __post_init__(self) -> None:
        # A rate so close to 1 that its canonical form prints as "1"
        # would not parse back, so it is out of range too.
        if not 0.0 <= self.ber < 1.0 or f"{self.ber:g}" == "1":
            raise FaultSpecError(
                f"bit-error rate must be in [0, 1), got {self.ber!r}"
            )
        if self.retry_budget < 0:
            raise FaultSpecError("retry budget must be non-negative")
        seen = set()
        for wire_class, factor in self.derates:
            if not factor >= 1.0:
                raise FaultSpecError(
                    f"derate factor for {wire_class.value}-Wires must be "
                    f">= 1.0 (slower, never faster), got {factor!r}"
                )
            if wire_class in seen:
                raise FaultSpecError(
                    f"duplicate derate for {wire_class.value}-Wires"
                )
            seen.add(wire_class)

    @property
    def is_null(self) -> bool:
        """True when the spec injects nothing at all."""
        return (self.ber == 0.0 and not self.kills
                and not any(f != 1.0 for _, f in self.derates))

    def derate_for(self, wire_class: WireClass) -> float:
        for wc, factor in self.derates:
            if wc is wire_class:
                return factor
        return 1.0

    def canonical(self) -> str:
        """Normalized string form; equal specs render identically."""
        clauses = []
        if self.ber:
            clauses.append(f"ber={self.ber:g}")
        for kill in sorted(self.kills,
                           key=lambda k: (k.cycle, k.link,
                                          k.wire_class.value)):
            clauses.append(kill.clause())
        # Factors are compared as printed, so a factor that rounds to 1
        # is dropped here rather than on the next canonicalization.
        derates = sorted(
            ((wc, f"{f:g}") for wc, f in self.derates if f"{f:g}" != "1"),
            key=lambda pair: pair[0].value,
        )
        if derates:
            clauses.append("derate=" + ",".join(
                f"{wc.value}:{f}" for wc, f in derates))
        if self.retry_budget != 4:
            clauses.append(f"retries={self.retry_budget}")
        return ";".join(clauses)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the canonical clause syntax; raises FaultSpecError.

        Clauses are semicolon-separated ``key=value`` pairs::

            ber=1e-6                  base bit-error rate
            kill=L@c0@2000            kill L-Wires on link c0 at cycle 2000
            kill=B@*@0                kill B-Wires everywhere, immediately
            derate=PW:1.2,B:1.1       latency derate factors per plane
            retries=4                 NACK retry budget before escalation
        """
        ber = 0.0
        kills = []
        derates: list = []
        retry_budget = 4
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            if not sep or not value:
                raise FaultSpecError(
                    f"malformed fault clause {clause!r}; expected "
                    "key=value (e.g. ber=1e-6, kill=L@c0@2000)"
                )
            key = key.strip().lower()
            value = value.strip()
            if key == "ber":
                ber = _parse_ber(value)
            elif key == "kill":
                kills.append(_parse_kill(value))
            elif key == "derate":
                derates.extend(_parse_derates(value))
            elif key == "retries":
                retry_budget = _parse_retries(value)
            else:
                raise FaultSpecError(
                    f"unknown fault clause {key!r}; expected one of "
                    "ber, kill, derate, retries"
                )
        return cls(ber=ber, kills=tuple(kills), derates=tuple(derates),
                   retry_budget=retry_budget)


def _parse_wire_class(text: str, context: str) -> WireClass:
    try:
        return WireClass(text.upper())
    except ValueError:
        names = ", ".join(wc.value for wc in WireClass)
        raise FaultSpecError(
            f"unknown wire class {text!r} in {context}; "
            f"expected one of {names}"
        ) from None


def _parse_ber(value: str) -> float:
    try:
        ber = float(value)
    except ValueError:
        raise FaultSpecError(
            f"bit-error rate must be a number, got {value!r}"
        ) from None
    if not 0.0 <= ber < 1.0:
        raise FaultSpecError(f"bit-error rate must be in [0, 1), got {ber}")
    return ber


def _parse_kill(value: str) -> PlaneKill:
    parts = value.split("@")
    if len(parts) != 3:
        raise FaultSpecError(
            f"malformed kill clause {value!r}; expected "
            "CLASS@link@cycle (e.g. L@c0@2000, B@*@0)"
        )
    wire_class = _parse_wire_class(parts[0], f"kill={value}")
    try:
        cycle = int(parts[2])
    except ValueError:
        raise FaultSpecError(
            f"kill cycle must be an integer, got {parts[2]!r}"
        ) from None
    return PlaneKill(wire_class=wire_class, link=parts[1], cycle=cycle)


def _parse_derates(value: str):
    for item in value.split(","):
        name, sep, factor_text = item.partition(":")
        if not sep:
            raise FaultSpecError(
                f"malformed derate {item!r}; expected CLASS:factor "
                "(e.g. PW:1.2)"
            )
        wire_class = _parse_wire_class(name.strip(), f"derate={item}")
        try:
            factor = float(factor_text)
        except ValueError:
            raise FaultSpecError(
                f"derate factor must be a number, got {factor_text!r}"
            ) from None
        yield (wire_class, factor)


def _parse_retries(value: str) -> int:
    try:
        retries = int(value)
    except ValueError:
        raise FaultSpecError(
            f"retry budget must be an integer, got {value!r}"
        ) from None
    if retries < 0:
        raise FaultSpecError("retry budget must be non-negative")
    return retries


#: The no-fault spec, for callers that want an explicit default.
NULL_FAULTS = FaultSpec()
