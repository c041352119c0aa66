"""Seeded decorrelated-jitter backoff: reproducible, bounded, spread."""

from itertools import pairwise

import pytest

from repro.harness.backoff import (
    DecorrelatedJitter,
    backoff_seed,
    jitter_delays,
)


class TestReproducibility:
    def test_same_seed_and_key_pin_the_schedule(self):
        """The regression pin: a replayed sweep must wait identically."""
        first = jitter_delays(5, base=0.25, cap=30.0, seed=42,
                              key="plan-a")
        second = jitter_delays(5, base=0.25, cap=30.0, seed=42,
                               key="plan-a")
        assert first == second
        # Pin the exact values so an accidental RNG/derivation change
        # cannot slip through as "still random-looking".
        assert first == pytest.approx([
            0.4780006202172007,
            1.0744216809102782,
            2.3632857196566572,
            0.5745492290721814,
            0.823729608124969,
        ])

    def test_seed_derivation_is_stable(self):
        assert backoff_seed(42, "plan-a") == backoff_seed(42, "plan-a")
        assert backoff_seed(42, "plan-a") != backoff_seed(43, "plan-a")
        assert backoff_seed(42, "plan-a") != backoff_seed(42, "plan-b")

    def test_reset_replays_the_walk_shape(self):
        schedule = DecorrelatedJitter(0.25, cap=30.0, seed=7, key="k")
        first = [schedule.next() for _ in range(3)]
        schedule.reset()
        second = [schedule.next() for _ in range(3)]
        # Same walk bounds (restarted at base) but the RNG stream
        # continues: delays stay in range without repeating verbatim.
        assert all(0.25 <= d <= 30.0 for d in first + second)


class TestBounds:
    def test_delays_stay_within_base_and_cap(self):
        delays = jitter_delays(200, base=0.5, cap=4.0, seed=1, key="x")
        assert all(0.5 <= d <= 4.0 for d in delays)
        assert max(delays) == 4.0  # the walk does reach the cap

    def test_zero_base_means_no_waiting(self):
        assert jitter_delays(5, base=0.0, seed=3) == [0.0] * 5

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DecorrelatedJitter(-0.1)
        with pytest.raises(ValueError):
            DecorrelatedJitter(2.0, cap=1.0)


class TestDecorrelation:
    def test_distinct_plans_drift_apart(self):
        """The whole point: two plans failing simultaneously must not
        retry in lockstep."""
        a = jitter_delays(6, base=0.25, cap=30.0, seed=42, key="plan-a")
        b = jitter_delays(6, base=0.25, cap=30.0, seed=42, key="plan-b")
        assert a != b

    def test_delays_are_not_a_fixed_progression(self):
        """Unlike base * 2**attempt, consecutive ratios vary."""
        delays = jitter_delays(6, base=0.25, cap=1000.0, seed=5,
                               key="k")
        ratios = {round(b / a, 6) for a, b in pairwise(delays)}
        assert len(ratios) > 1
