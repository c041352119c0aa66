"""Property tests for the plane power manager's core invariants.

Three contracts from DESIGN section 15, checked under randomized
traffic rather than hand-picked schedules:

* no transfer is ever granted wires on a plane that is not ACTIVE --
  drowsy, waking and gated planes are all presented to the selector as
  avoided planes;
* wake-up energy and latency are charged exactly once per
  reactivation, no matter how many demands pile up while the plane is
  still ramping;
* the accounting is a function of the per-cycle event *multiset*, not
  the order events happen to be processed within a cycle -- the
  property that makes scalar tick order and event-engine batch order
  indistinguishable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.network import Network
from repro.interconnect.plane import LinkComposition
from repro.interconnect.topology import Topology
from repro.power import PlanePowerManager, PowerState, parse_gating
from repro.wires import WireClass

#: Aggressive policies so short random schedules actually sleep planes.
POLICY_STRINGS = (
    "idle:drowsy=8,gate=32",
    "idle:drowsy=16,gate=64",
    "ewma:halflife=16,thr=0.5",
    "ewma:halflife=32,thr=0.5,gthr=0.25,hold=8",
)

MIX = {WireClass.B: 144, WireClass.PW: 288, WireClass.L: 36}
CLUSTERS = ("c0", "c1", "c2", "c3")

policies = st.sampled_from(POLICY_STRINGS)


def make_manager(policy_text):
    return PlanePowerManager(Topology(4), LinkComposition(MIX),
                             parse_gating(policy_text))


transfer_kinds = st.sampled_from(
    [TransferKind.OPERAND, TransferKind.MISPREDICT]
)
submissions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300),
              st.sampled_from(CLUSTERS), st.sampled_from(CLUSTERS),
              transfer_kinds),
    min_size=1, max_size=40,
)


class TestOneMachinePerLink:
    def test_ring_directions_share_a_slot(self):
        """At 8 clusters one ring link carries both ring channels."""
        power = PlanePowerManager(Topology(8), LinkComposition(MIX),
                                  parse_gating(POLICY_STRINGS[0]))
        forward = power._slots_on(("ring:0>1",))
        backward = power._slots_on(("ring:1>0",))
        assert forward
        assert all(a is b for a, b in zip(forward, backward, strict=True))
        assert {slot.link for slot in forward} == {"ring:0-1"}


class TestNoTrafficOnSleepingPlanes:
    @settings(max_examples=25, deadline=None)
    @given(policy=policies, subs=submissions)
    def test_granted_plane_is_always_active(self, policy, subs):
        net = Network(Topology(4), LinkComposition(MIX),
                      gating=parse_gating(policy))
        power = net.power
        violations = []
        original = power.note_activity

        def checked(channels, plane, cycle):
            # An injection IS the grant: the selector already chose
            # this plane for this path.  It must be awake.
            for slot in power._slots_on(channels):
                if slot.plane is plane:
                    power._settle(slot, cycle, emit=False)
                    if slot.state is not PowerState.ACTIVE:
                        violations.append(
                            (cycle, slot.link, plane, slot.state)
                        )
            original(channels, plane, cycle)

        power.note_activity = checked
        horizon = max(at for at, *_ in subs) + 50
        for cycle in range(horizon):
            net.deliver_due(cycle)
            for at, src, dst, kind in subs:
                if at == cycle and src != dst:
                    net.submit(Transfer(kind=kind, src=src, dst=dst),
                               cycle)
            net.tick(cycle)
        assert not violations


demand_gaps = st.lists(st.integers(min_value=1, max_value=200),
                       min_size=1, max_size=30)


class TestWakeChargedOncePerReactivation:
    @settings(max_examples=50, deadline=None)
    @given(policy=policies, gaps=demand_gaps)
    def test_wake_count_matches_sleep_episodes(self, policy, gaps):
        power = make_manager(policy)
        channels = ("c0:out", "c1:in")
        slots = [s for s in power._slots_on(channels)
                 if s.plane is WireClass.L]
        expected_wakes = 0
        expected_energy = 0.0
        cycle = 0
        for gap in gaps:
            cycle += gap
            # Settle first (idempotent) to observe the pre-demand state:
            # only a demand that finds the plane asleep may charge.
            for slot in slots:
                power._settle(slot, cycle, emit=False)
                if slot.state is PowerState.GATED:
                    expected_wakes += 1
                    expected_energy += 0.2 * slot.wires
                elif slot.state is PowerState.DROWSY:
                    expected_wakes += 1
                    expected_energy += 0.05 * slot.wires
            power.route_avoid(channels, cycle,
                              frozenset((WireClass.L,)), frozenset())
        assert power.total_wakes() == expected_wakes
        # approx: summation order differs (per-episode vs per-slot).
        assert power.wake_energy() == pytest.approx(expected_energy)

    @settings(max_examples=50, deadline=None)
    @given(policy=policies,
           idle=st.integers(min_value=8, max_value=400),
           pile_up=st.integers(min_value=1, max_value=10))
    def test_wake_latency_blocks_until_ready_and_charges_once(
            self, policy, idle, pile_up):
        power = make_manager(policy)
        channels = ("c0:out", "c1:in")
        demand = frozenset((WireClass.L,))
        slots = [s for s in power._slots_on(channels)
                 if s.plane is WireClass.L]
        for slot in slots:
            power._settle(slot, idle, emit=False)
        asleep = [s for s in slots if s.state in (PowerState.DROWSY,
                                                  PowerState.GATED)]
        if not asleep:
            return  # policy never slept within this idle span
        avoid = power.route_avoid(channels, idle, demand, frozenset())
        assert WireClass.L in avoid  # latency = unavailability
        wakes_after_first = power.total_wakes()
        assert wakes_after_first == len(asleep)
        ready = max(s.wake_ready for s in asleep)
        # Demands piling up mid-ramp neither re-charge nor re-arm.
        for extra in range(1, pile_up + 1):
            at = idle + extra
            if at >= ready:
                break
            again = power.route_avoid(channels, at, demand, frozenset())
            assert WireClass.L in again
        assert power.total_wakes() == wakes_after_first
        done = power.route_avoid(channels, ready, frozenset(),
                                 frozenset())
        assert WireClass.L not in done
        assert power.total_wakes() == wakes_after_first


#: A cycle's worth of same-cycle events: injections and path demands.
events_per_cycle = st.lists(
    st.tuples(st.sampled_from(["touch", "demand"]),
              st.sampled_from([WireClass.B, WireClass.PW, WireClass.L])),
    min_size=1, max_size=4,
)
schedules = st.lists(
    st.tuples(st.integers(min_value=1, max_value=120), events_per_cycle),
    min_size=1, max_size=15,
)


class TestPermutationInvariance:
    @settings(max_examples=50, deadline=None)
    @given(policy=policies, sched=schedules,
           shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_energy_invariant_under_same_cycle_reorder(
            self, policy, sched, shuffle_seed):
        channels = ("c0:out", "c1:in")

        def replay(event_order):
            power = make_manager(policy)
            cycle = 0
            for gap, events in sched:
                cycle += gap
                for kind, plane in event_order(events):
                    if kind == "touch":
                        power.note_activity(channels, plane, cycle)
                    else:
                        power.route_avoid(channels, cycle,
                                          frozenset((plane,)),
                                          frozenset())
            return power, cycle

        rng = random.Random(shuffle_seed)

        def shuffled(events):
            events = list(events)
            rng.shuffle(events)
            return events

        ordered, horizon = replay(list)
        permuted, _ = replay(shuffled)
        window = horizon + 100
        assert (ordered.leakage_energy(window)
                == permuted.leakage_energy(window))
        assert ordered.wake_energy() == permuted.wake_energy()
        assert ordered.total_wakes() == permuted.total_wakes()
        assert (ordered.total_gate_entries()
                == permuted.total_gate_entries())
        assert ordered.gated_share(window) == permuted.gated_share(window)
        for a, b in zip(ordered._slots, permuted._slots, strict=True):
            assert (a.link, a.plane) == (b.link, b.plane)
            assert a.state is b.state
            assert a.last_use == b.last_use
            assert a.ewma == b.ewma


#: Memo schedules add "strand": a path whose bulk plane B is dead, so a
#: sleeping PW plane is force-woken.
memo_schedules = st.lists(
    st.tuples(st.integers(min_value=1, max_value=120), st.lists(
        st.tuples(st.sampled_from(["touch", "demand", "strand"]),
                  st.sampled_from([WireClass.B, WireClass.PW,
                                   WireClass.L])),
        min_size=1, max_size=4)),
    min_size=1, max_size=15,
)


class TestTransitionMemo:
    """Each slot caches ``policy.transitions_after(last_use, ewma)``
    between touches; a cached pair must always equal a fresh one."""

    @settings(max_examples=100, deadline=None)
    @given(policy=policies, sched=memo_schedules)
    def test_cached_transitions_match_the_policy(self, policy, sched):
        power = make_manager(policy)
        channels = ("c0:out", "c1:in")
        cycle = 0
        cached = 0
        for gap, events in sched:
            cycle += gap
            for kind, plane in events:
                if kind == "touch":
                    power.note_activity(channels, plane, cycle)
                elif kind == "demand":
                    power.route_avoid(channels, cycle, frozenset((plane,)),
                                      frozenset())
                else:
                    power.route_avoid(channels, cycle, frozenset(),
                                      frozenset((WireClass.B,)))
                for slot in power._slots:
                    if slot.transitions is not None:
                        cached += 1
                        assert slot.transitions == \
                            power.policy.transitions_after(slot.last_use,
                                                           slot.ewma)
        # Every route_avoid settles the path's gateable slots, so the
        # memo was filled (and checked) at least once.
        assert cached or all(kind == "touch"
                             for _, events in sched for kind, _ in events)
