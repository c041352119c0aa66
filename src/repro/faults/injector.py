"""Deterministic, seeded realisation of a :class:`FaultSpec`.

The injector answers three questions for the network:

* *Which planes die, where, and when?* -- ``scheduled_kills`` asks a
  topology for the channels of each link the spec names.
* *Does this segment arrive corrupted?* -- ``corrupts`` draws from a
  counter-based hash keyed on (seed, transfer identity, attempt), so the
  decision is a pure function of the segment, independent of call order,
  process count or wall clock.  Fixed seed => bit-identical runs.
* *How slow is this plane?* -- ``scaled_latency`` applies the spec's
  process-variation derate factors.

The per-plane error rate is the base BER scaled by the wire class's
relative delay (Table 2): PW-Wires (1.2x delay, sparse small repeaters)
are the most fragile, L-Wires (0.3x delay, fat and widely spaced) the
most robust.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..interconnect.errors import ConfigError
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..wires import CANONICAL_SPECS, WireClass
from .spec import FaultSpec

if TYPE_CHECKING:
    from ..interconnect.topology import Topology


class FaultInjector:
    """Applies one :class:`FaultSpec` deterministically under a seed."""

    def __init__(self, spec: FaultSpec, seed: int = 0,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.spec = spec
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._derate: Dict[WireClass, float] = {
            wc: spec.derate_for(wc) for wc in WireClass
        }
        # Effective per-plane, per-bit, per-link error probability.
        self._plane_ber: Dict[WireClass, float] = {
            wc: min(1.0, spec.ber * CANONICAL_SPECS[wc].relative_delay)
            for wc in WireClass
        }
        #: Per (plane, kind): the draw key's text up to ``seq``.
        self._key_prefix: Dict[Tuple[WireClass, str], str] = {}

    # -- plane kills -----------------------------------------------------

    def scheduled_kills(
        self, topology: Topology
    ) -> List[Tuple[int, str, WireClass]]:
        """(cycle, channel, wire class) for every spec'd kill.

        A kill names a link of ``topology.link_inventory()`` (a ring link
        either way round) or ``*`` for every channel.  Raises
        :class:`ConfigError` when it names a link absent from the
        topology, so typos fail loudly at construction instead of
        silently injecting nothing.
        """
        kills: List[Tuple[int, str, WireClass]] = []
        for kill in self.spec.kills:
            matched = (topology.channels if kill.link == "*"
                       else topology.channels_of(kill.link))
            if not matched:
                known = ", ".join(
                    link for link, _ in topology.link_inventory())
                raise ConfigError(
                    f"fault spec kills {kill.wire_class.value}-Wires on "
                    f"link {kill.link!r}, but the topology has no such "
                    f"link (links: {known}, or '*')"
                )
            for channel in matched:
                kills.append((kill.cycle, channel, kill.wire_class))
        kills.sort()
        return kills

    # -- latency derating ------------------------------------------------

    def scaled_latency(self, wire_class: WireClass, base: int) -> int:
        """Path latency after process-variation derating (>= base)."""
        factor = self._derate[wire_class]
        if factor == 1.0:
            return base
        return max(base, math.ceil(base * factor))

    # -- transient corruption --------------------------------------------

    def error_rate(self, wire_class: WireClass) -> float:
        """Effective per-bit, per-link error probability of a plane."""
        return self._plane_ber[wire_class]

    def corrupts(self, wire_class: WireClass, kind: str, seq: int,
                 bits: int, hops: int, attempt: int,
                 leading: bool = False) -> bool:
        """Deterministically decide whether one segment arrives corrupt.

        The segment exposes ``bits * hops`` bit-link crossings; each is
        corrupted independently with the plane's effective BER.  The
        draw is a hash of the text ``repr((seed, plane, kind, seq,
        slice, attempt))`` -- stable across call order, retries get
        fresh draws.  The text up to ``seq`` is built once per (plane,
        kind).
        """
        rate = self._plane_ber[wire_class]
        if rate <= 0.0:
            return False
        exposure = bits * max(1, hops)
        probability = 1.0 - (1.0 - rate) ** exposure
        prefix = self._key_prefix.get((wire_class, kind))
        if prefix is None:
            prefix = self._key_prefix[(wire_class, kind)] = \
                repr((self.seed, wire_class.value, kind))[:-1] + ", "
        corrupt = _unit(
            f"{prefix}{seq}, {int(leading)}, {attempt})") < probability
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.draws")
            if corrupt:
                tel.count("faults.corruptions")
        return corrupt


def _unit(key: str) -> float:
    """A uniform draw in [0, 1) from the blake2b hash of ``key``."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64
