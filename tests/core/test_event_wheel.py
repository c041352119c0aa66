"""Property-based tests for the event wheel (the processor's heart).

The wheel's contract, as the processor relies on it:

* events scheduled for the same cycle fire in schedule order (FIFO),
  which the pinned results of the golden corpus rest on;
* no live event is ever skipped: draining the wheel cycle by cycle
  fires every scheduled-and-not-cancelled event exactly once, at
  exactly its cycle;
* :meth:`next_cycle` never overshoots the earliest live event -- the
  idle-skip in ``ClusteredProcessor._run_until`` jumps straight to it, so
  an overshoot would silently drop a wakeup;
* cancellation revokes exactly the targeted event and never perturbs
  the relative order of that cycle's survivors.

Hypothesis drives random schedule/cancel/pop interleavings against a
transparent reference model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wheel import EventWheel

# An op is ("sched", cycle_offset) | ("cancel", token_index) | ("pop",).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("pop")),
    ),
    max_size=200,
)


class _Recorder:
    """Reference model: every scheduled event, with its fate."""

    def __init__(self):
        self.records = []   # per event: dict(cycle, cancelled, fired_at)
        self.fired_log = []  # (cycle, event index) in firing order

    def make_callback(self, index, cycle):
        self.records.append(
            {"cycle": cycle, "cancelled": False, "fired_at": None}
        )

        def fire(_arg, _index=index):
            record = self.records[_index]
            assert record["fired_at"] is None, "event fired twice"
            record["fired_at"] = "pending"
            self.fired_log.append(_index)

        return fire

    def live_cycles(self):
        return sorted(
            r["cycle"] for r in self.records
            if not r["cancelled"] and r["fired_at"] is None
        )


def _replay(ops):
    """Run an op sequence; returns (wheel, recorder, tokens, now)."""
    wheel = EventWheel()
    recorder = _Recorder()
    tokens = []
    now = 0
    for op in ops:
        if op[0] == "sched":
            cycle = now + op[1]
            index = len(recorder.records)
            tokens.append(
                (wheel.schedule(cycle, recorder.make_callback(index, cycle)),
                 index)
            )
        elif op[0] == "cancel":
            if tokens:
                token, index = tokens[op[1] % len(tokens)]
                if wheel.cancel(token):
                    record = recorder.records[index]
                    assert record["fired_at"] is None, \
                        "cancel succeeded on an already-fired event"
                    record["cancelled"] = True
        else:  # pop: drain the current cycle, then advance
            before = len(recorder.fired_log)
            wheel.fire_due(now)
            for index in recorder.fired_log[before:]:
                record = recorder.records[index]
                assert record["cycle"] == now, \
                    f"event for cycle {record['cycle']} fired at {now}"
                record["fired_at"] = now
            now += 1
    return wheel, recorder, tokens, now


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_no_event_skipped_or_duplicated(ops):
    wheel, recorder, _, now = _replay(ops)
    # Drain everything still pending, guided only by next_cycle().
    while True:
        nxt = wheel.next_cycle()
        if nxt is None:
            break
        assert nxt >= now or not recorder.live_cycles(), \
            "next_cycle moved backwards"
        before = len(recorder.fired_log)
        wheel.fire_due(nxt)
        assert len(recorder.fired_log) > before, \
            "next_cycle pointed at a cycle with nothing to fire"
        for index in recorder.fired_log[before:]:
            recorder.records[index]["fired_at"] = nxt
        now = nxt + 1
    # Every event either fired exactly once at its cycle, or was
    # cancelled and never fired.
    for record in recorder.records:
        if record["cancelled"]:
            assert record["fired_at"] is None
        else:
            assert record["fired_at"] == record["cycle"]
    assert len(wheel) == 0


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_same_cycle_events_fire_in_schedule_order(ops):
    _, recorder, _, _ = _replay(ops)
    # Within the interleaved firing log, events of the same cycle must
    # appear in schedule order (their indices are schedule-ordered).
    last_index_for_cycle = {}
    for index in recorder.fired_log:
        cycle = recorder.records[index]["cycle"]
        previous = last_index_for_cycle.get(cycle)
        assert previous is None or index > previous, (
            f"cycle {cycle}: event {index} fired after event {previous} "
            f"despite being scheduled first"
        )
        last_index_for_cycle[cycle] = index


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_next_cycle_is_exactly_the_earliest_live_event(ops):
    wheel, recorder, _, _ = _replay(ops)
    live = recorder.live_cycles()
    if live:
        assert wheel.next_cycle() == live[0]
    else:
        assert wheel.next_cycle() is None
    assert len(wheel) == len(live)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_cancel_is_single_shot(ops):
    wheel, recorder, tokens, _ = _replay(ops)
    # A second cancel of any token must report False; a first cancel
    # succeeds iff the event is still pending.
    for token, index in tokens:
        record = recorder.records[index]
        if record["cancelled"]:
            assert wheel.cancel(token) is False
        elif record["fired_at"] is not None:
            assert wheel.cancel(token) is False


def test_schedule_before_cycle_zero_rejected():
    import pytest

    with pytest.raises(ValueError):
        EventWheel().schedule(-1, lambda _arg: None)


def test_counters_track_lifecycle():
    wheel = EventWheel()
    fired = []
    t1 = wheel.schedule(3, fired.append, "a")
    wheel.schedule(3, fired.append, "b")
    wheel.schedule(5, fired.append, "c")
    assert wheel.scheduled == 3
    assert wheel.cancel(t1)
    assert wheel.cancelled == 1
    assert wheel.fire_due(3) == 1
    assert fired == ["b"]
    assert wheel.next_cycle() == 5
    assert wheel.fire_due(5) == 1
    assert wheel.fired == 2
    assert wheel.next_cycle() is None
