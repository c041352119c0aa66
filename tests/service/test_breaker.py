"""CircuitBreaker: trip, cool down, probe, recover -- on a fake clock."""

import pytest

from repro.service import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_breaker(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("window", 8)
    kwargs.setdefault("threshold", 0.5)
    kwargs.setdefault("min_samples", 4)
    kwargs.setdefault("cooldown", 30.0)
    return CircuitBreaker(clock=clock, **kwargs), clock


class TestTripping:
    def test_starts_closed_and_allows_execution(self):
        breaker, _clock = make_breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow_execution()
        assert breaker.crash_rate() == 0.0

    def test_trips_open_at_threshold(self):
        breaker, _clock = make_breaker()
        for crashed in (True, True, False, True):
            breaker.record(crashed)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow_execution()
        assert breaker.transitions == [("closed", "open")]

    def test_min_samples_guards_early_crashes(self):
        """One crash in a cold window must not trip the breaker."""
        breaker, _clock = make_breaker(min_samples=4)
        breaker.record(True)
        breaker.record(True)
        assert breaker.state is BreakerState.CLOSED

    def test_window_slides(self):
        """Old crashes age out of the fixed-size window."""
        breaker, _clock = make_breaker(window=4, min_samples=4)
        breaker.record(True)
        for _ in range(4):
            breaker.record(False)
        assert breaker.crash_rate() == 0.0
        assert breaker.state is BreakerState.CLOSED


class TestRecovery:
    def test_half_open_after_cooldown(self):
        breaker, clock = make_breaker(min_samples=2, cooldown=30.0)
        breaker.record(True)
        breaker.record(True)
        assert breaker.state is BreakerState.OPEN
        clock.advance(29.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = make_breaker(min_samples=2)
        breaker.record(True)
        breaker.record(True)
        clock.advance(31.0)
        assert breaker.allow_execution()
        assert not breaker.allow_execution()
        assert not breaker.allow_execution()

    def test_clean_probe_closes_and_clears_window(self):
        breaker, clock = make_breaker(min_samples=2)
        breaker.record(True)
        breaker.record(True)
        clock.advance(31.0)
        assert breaker.allow_execution()
        breaker.record(False)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.crash_rate() == 0.0
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_probe_that_runs_nothing_hands_the_slot_on(self):
        """A probe with no outcome (all cache hits, errors, cancel)
        must not hold the probe slot forever."""
        breaker, clock = make_breaker(min_samples=2)
        breaker.record(True)
        breaker.record(True)
        clock.advance(31.0)
        assert breaker.allow_execution()
        assert not breaker.allow_execution()
        breaker.abstain()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow_execution()
        assert not breaker.allow_execution()
        breaker.record(False)
        assert breaker.state is BreakerState.CLOSED

    def test_crashing_probe_reopens_for_another_cooldown(self):
        breaker, clock = make_breaker(min_samples=2)
        breaker.record(True)
        breaker.record(True)
        clock.advance(31.0)
        assert breaker.allow_execution()
        breaker.record(True)
        assert breaker.state is BreakerState.OPEN
        clock.advance(29.0)
        assert breaker.state is BreakerState.OPEN
        clock.advance(2.0)
        assert breaker.state is BreakerState.HALF_OPEN


class TestCallbacksAndValidation:
    def test_on_transition_fires_with_states_and_rate(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            window=4, threshold=0.5, min_samples=2, cooldown=10.0,
            clock=clock,
            on_transition=lambda old, new, rate: seen.append(
                (old.value, new.value, rate)),
        )
        breaker.record(True)
        breaker.record(True)
        assert seen == [("closed", "open", 1.0)]

    @pytest.mark.parametrize("kwargs", [
        dict(window=0),
        dict(threshold=0.0),
        dict(threshold=1.5),
        dict(min_samples=0),
        dict(min_samples=30),
        dict(cooldown=0),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            make_breaker(**kwargs)
