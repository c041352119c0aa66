"""Tests for the deterministic fault injector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultSpec, PlaneKill
from repro.faults import injector as injector_module
from repro.interconnect import ConfigError
from repro.interconnect.topology import CrossbarTopology
from repro.wires import CANONICAL_SPECS, WireClass


def make_injector(spec_text, seed=0):
    return FaultInjector(FaultSpec.parse(spec_text), seed=seed)


class TestScheduledKills:
    def test_wildcard_covers_every_channel(self):
        topology = CrossbarTopology(4)
        injector = make_injector("kill=L@*@100")
        kills = injector.scheduled_kills(topology.channels)
        assert len(kills) == len(topology.channels)
        assert all(cycle == 100 and wc is WireClass.L
                   for cycle, _, wc in kills)

    def test_named_link_covers_both_directions(self):
        topology = CrossbarTopology(4)
        injector = make_injector("kill=B@c0@5")
        kills = injector.scheduled_kills(topology.channels)
        assert sorted(ch for _, ch, _ in kills) == ["c0:in", "c0:out"]

    def test_unknown_link_raises_config_error(self):
        topology = CrossbarTopology(4)
        injector = make_injector("kill=L@c9@0")
        with pytest.raises(ConfigError, match="no such link"):
            injector.scheduled_kills(topology.channels)

    def test_kills_sorted_by_cycle(self):
        topology = CrossbarTopology(2)
        injector = make_injector("kill=L@c1@200;kill=B@c0@100")
        kills = injector.scheduled_kills(topology.channels)
        assert [cycle for cycle, _, _ in kills] == sorted(
            cycle for cycle, _, _ in kills
        )


class TestLatencyDerating:
    def test_identity_without_derate(self):
        injector = make_injector("ber=1e-9")
        assert injector.scaled_latency(WireClass.B, 4) == 4

    def test_derate_rounds_up(self):
        injector = make_injector("derate=B:1.3")
        assert injector.scaled_latency(WireClass.B, 3) == 4  # ceil(3.9)

    def test_derate_never_shrinks(self):
        injector = make_injector("derate=PW:1.0001")
        assert injector.scaled_latency(WireClass.PW, 2) >= 2


class TestCorruption:
    def test_zero_ber_never_corrupts(self):
        injector = make_injector("kill=L@*@0")
        assert not injector.corrupts(WireClass.B, "operand", 1, 72, 2, 0)

    def test_deterministic_across_instances(self):
        a = make_injector("ber=1e-3", seed=7)
        b = make_injector("ber=1e-3", seed=7)
        draws = [
            a.corrupts(WireClass.B, "operand", seq, 72, 2, 0)
            for seq in range(500)
        ]
        assert draws == [
            b.corrupts(WireClass.B, "operand", seq, 72, 2, 0)
            for seq in range(500)
        ]
        assert any(draws)  # 72*2 exposures at 0.8e-3 -> some corruption

    def test_seed_changes_draws(self):
        a = make_injector("ber=5e-4", seed=1)
        b = make_injector("ber=5e-4", seed=2)
        draws_a = [a.corrupts(WireClass.B, "operand", s, 72, 2, 0)
                   for s in range(2000)]
        draws_b = [b.corrupts(WireClass.B, "operand", s, 72, 2, 0)
                   for s in range(2000)]
        assert draws_a != draws_b

    def test_retry_attempt_gets_fresh_draw(self):
        injector = make_injector("ber=2e-3", seed=3)
        first = [injector.corrupts(WireClass.B, "operand", s, 72, 2, 0)
                 for s in range(300)]
        second = [injector.corrupts(WireClass.B, "operand", s, 72, 2, 1)
                  for s in range(300)]
        assert first != second

    def test_ber_scales_with_relative_delay(self):
        injector = make_injector("ber=1e-6")
        for wc in (WireClass.L, WireClass.B, WireClass.PW):
            expected = 1e-6 * CANONICAL_SPECS[wc].relative_delay
            assert injector.error_rate(wc) == pytest.approx(expected)
        # PW (1.2x delay) is more fragile than L (0.3x delay).
        assert injector.error_rate(WireClass.PW) > injector.error_rate(
            WireClass.L)

    def test_empirical_rate_tracks_probability(self):
        injector = make_injector("ber=1e-4", seed=11)
        bits, hops = 72, 2
        rate = injector.error_rate(WireClass.B)
        expected = 1.0 - (1.0 - rate) ** (bits * hops)
        trials = 4000
        hits = sum(
            injector.corrupts(WireClass.B, "operand", s, bits, hops, 0)
            for s in range(trials)
        )
        assert hits / trials == pytest.approx(expected, rel=0.5)


class TestDrawKey:
    """``corrupts`` hashes its key text from a cached (plane, kind)
    prefix; the text must stay byte-identical to the tuple's repr, or
    every faulted run's draws move."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=-2**40, max_value=2**40),
           plane=st.sampled_from(list(WireClass)),
           kind=st.sampled_from(["operand", "load_address", "x'y"]),
           seq=st.integers(min_value=-5, max_value=2**40),
           leading=st.booleans(),
           attempt=st.integers(min_value=0, max_value=9))
    def test_key_is_the_repr_of_the_draw_tuple(self, seed, plane, kind,
                                               seq, leading, attempt):
        keys = []

        def record(key):
            keys.append(key)
            return 0.5

        injector = make_injector("ber=1e-3", seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(injector_module, "_unit", record)
            # Twice: the second call takes the cached prefix.
            for _ in range(2):
                injector.corrupts(plane, kind, seq, 72, 2, attempt, leading)
        expected = repr((seed, plane.value, kind, seq, int(leading),
                         attempt))
        assert keys == [expected, expected]
