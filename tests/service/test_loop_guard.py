"""The loop guard (``conftest.loop_guard``) sees what it must see.

The guard fails any service test in which a blocking call runs on a
thread with a running event loop.  These tests keep it honest: it
records a real blocking call on a loop, ignores the same call off the
loop, and its accepted set still names live code.
"""

import asyncio
import sys
import time

from repro.harness.runner import ExperimentPlan


def test_blocking_call_on_a_running_loop_is_recorded(loop_guard):
    async def nap():
        time.sleep(0)

    asyncio.run(nap())
    (call,) = loop_guard.violations
    loop_guard.violations.clear()  # recorded, not a failure of this test
    assert call.sink == "time.sleep"
    assert call.accepted_by == ""
    assert call.frames == ()  # no repro code on the way


def test_blocking_calls_off_the_loop_are_not_recorded(loop_guard):
    async def hand_off():
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, time.sleep, 0)

    time.sleep(0)
    asyncio.run(hand_off())
    assert loop_guard.violations == []
    assert loop_guard.accepted == []


def test_submit_round_trip_exercises_the_accepted_set(
        fake_execute, serve, loop_guard):
    """A rename in jobs.py must not leave the accepted set dead."""
    client = serve().client()
    job = client.submit([ExperimentPlan("I", "gzip", instructions=300,
                                        warmup=80)])
    client.wait(job["job_id"], timeout=20, poll=0.05)
    admit_saves = [
        call for call in loop_guard.accepted
        if call.accepted_by == "JobStore.save"
        and any(frame.startswith("repro.service.server._admit:")
                for frame in call.frames)
    ]
    assert admit_saves


def test_only_job_records_are_accepted_on_the_loop(loop_guard):
    """The loop reads and writes job records and nothing else."""
    accepted = sys.modules[type(loop_guard).__module__].ACCEPTED
    assert sorted(accepted.values()) == [
        "JobStore.load", "JobStore.save", "JobStore.scan"]
