"""AdmissionQueue: bounds, FIFO order, backpressure hints."""

import asyncio

import pytest

from repro.service import AdmissionQueue, QueueFullError


def drain(queue, count):
    async def take():
        return [await queue.get() for _ in range(count)]

    return asyncio.run(take())


class TestOrdering:
    def test_dequeues_in_admission_order(self):
        queue = AdmissionQueue(capacity=8)
        for item in ("a", "b", "c"):
            queue.put(item)
        assert drain(queue, 3) == ["a", "b", "c"]

    def test_get_waits_for_a_put(self):
        queue = AdmissionQueue(capacity=2)

        async def scenario():
            getter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            queue.put("late")
            return await asyncio.wait_for(getter, timeout=2)

        assert asyncio.run(scenario()) == "late"


class TestBackpressure:
    def test_rejects_at_capacity_before_storing(self):
        queue = AdmissionQueue(capacity=2)
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFullError) as excinfo:
            queue.put("c")
        assert queue.depth == 2
        assert queue.rejected == 1
        assert excinfo.value.capacity == 2
        assert excinfo.value.retry_after >= 1

    def test_sustained_rejection_is_bounded(self):
        queue = AdmissionQueue(capacity=1)
        queue.put("only")
        for n in range(100):
            with pytest.raises(QueueFullError):
                queue.put(f"extra-{n}")
        assert queue.depth == 1
        assert queue.rejected == 100

    def test_retry_after_scales_with_service_time(self):
        queue = AdmissionQueue(capacity=4)
        baseline = queue.retry_after()
        for _ in range(10):
            queue.observe_service_time(30.0)
        assert queue.retry_after() > baseline
        assert queue.retry_after() <= 120

    def test_force_bypasses_capacity(self):
        queue = AdmissionQueue(capacity=1)
        queue.put("a")
        queue.put("resumed", force=True)
        assert queue.depth == 2
        assert drain(queue, 2) == ["a", "resumed"]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


class TestRemove:
    def test_remove_withdraws_a_queued_item(self):
        queue = AdmissionQueue(capacity=4)
        for item in ("a", "b", "c"):
            queue.put(item)
        assert queue.remove("b")
        assert not queue.remove("b")
        assert queue.depth == 2
        assert drain(queue, 2) == ["a", "c"]

    def test_remove_missing_is_false(self):
        queue = AdmissionQueue(capacity=2)
        assert not queue.remove("ghost")
