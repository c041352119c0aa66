"""Property-based tests for the event wheel (the processor's heart).

The wheel's contract, as the processor relies on it:

* events scheduled for the same cycle fire in schedule order (FIFO),
  which the pinned results of the golden corpus rest on;
* no event is ever skipped: draining the wheel cycle by cycle fires
  every scheduled event exactly once, at exactly its cycle;
* :meth:`next_cycle` never overshoots the earliest pending event -- the
  idle-skip in ``ClusteredProcessor._run_until`` jumps straight to it,
  so an overshoot would silently drop a wakeup.

Hypothesis drives random schedule/step/skip interleavings against a
transparent reference model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wheel import EventWheel

# An op is ("sched", cycle_offset) | ("step",) | ("skip",): step fires
# the current cycle and advances one; skip jumps to next_cycle() first,
# as the processor's idle-skip does.  ``now`` is always the next cycle
# to fire, so offset 0 files an event under the cycle about to fire --
# the processor's most common schedule (``self.cycle + 1`` from inside
# a step).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("step")),
        st.tuples(st.just("skip")),
    ),
    max_size=200,
)


class _Model:
    """Drives a wheel and records every event's fate."""

    def __init__(self):
        self.wheel = EventWheel()
        self.cycles = []      # per event: the cycle it was scheduled for
        self.fired = []       # (cycle fired at, event index), firing order
        self.now = 0

    def schedule(self, offset):
        index = len(self.cycles)
        self.cycles.append(self.now + offset)
        self.wheel.schedule(self.now + offset, self._record, index)

    def _record(self, index):
        self.fired.append((self.now, index))

    def pending(self):
        done = {index for _, index in self.fired}
        return sorted(cycle for index, cycle in enumerate(self.cycles)
                      if index not in done)

    def fire(self):
        for fn, arg in self.wheel.pop_due(self.now):
            fn(arg)
        self.now += 1

    def skip(self):
        pending = self.pending()
        target = self.wheel.next_cycle()
        if not pending:
            assert target is None
            return
        assert target == pending[0], "next_cycle missed the earliest event"
        assert target >= self.now, "an event was left behind"
        self.now = target


def _replay(ops):
    model = _Model()
    for op in ops:
        if op[0] == "sched":
            model.schedule(op[1])
        elif op[0] == "step":
            model.fire()
        else:
            model.skip()
    return model


def _drain(model):
    """Fire everything still pending, guided only by next_cycle()."""
    while True:
        target = model.wheel.next_cycle()
        if target is None:
            break
        assert target >= model.now, "next_cycle moved backwards"
        model.now = target
        before = len(model.fired)
        model.fire()
        assert len(model.fired) > before, \
            "next_cycle pointed at a cycle with nothing to fire"


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_no_event_skipped_or_duplicated(ops):
    model = _replay(ops)
    _drain(model)
    indices = [index for _, index in model.fired]
    assert sorted(indices) == list(range(len(model.cycles))), \
        "an event was skipped or fired twice"
    for cycle, index in model.fired:
        assert cycle == model.cycles[index], \
            f"event for cycle {model.cycles[index]} fired at {cycle}"
    assert model.wheel.next_cycle() is None


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_same_cycle_events_fire_in_schedule_order(ops):
    model = _replay(ops)
    _drain(model)
    # Event indices are schedule-ordered, so within one cycle the
    # firing log must list them in increasing order.
    last = {}
    for cycle, index in model.fired:
        assert last.get(cycle, -1) < index, (
            f"cycle {cycle}: event {index} fired after event "
            f"{last[cycle]} despite being scheduled first")
        last[cycle] = index


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_next_cycle_is_exactly_the_earliest_live_event(ops):
    model = _replay(ops)
    pending = model.pending()
    assert model.wheel.next_cycle() == (pending[0] if pending else None)


def test_schedule_before_cycle_zero_rejected():
    with pytest.raises(ValueError):
        EventWheel().schedule(-1, lambda _arg: None)


def test_a_drained_cycle_can_be_scheduled_again():
    wheel = EventWheel()
    fired = []
    wheel.schedule(3, fired.append, "a")
    assert wheel.next_cycle() == 3
    for fn, arg in wheel.pop_due(3):
        fn(arg)
    wheel.schedule(3, fired.append, "b")
    wheel.schedule(5, fired.append, "c")
    assert wheel.next_cycle() == 3
    for cycle in (3, 4, 5):
        for fn, arg in wheel.pop_due(cycle):
            fn(arg)
    assert fired == ["a", "b", "c"]
    assert wheel.next_cycle() is None
