"""Tests for the fetch unit: width, blocks, redirect stalls."""

import pytest

from repro.frontend.fetch import FetchUnit
from repro.workloads.annotate import AnnotatedTrace
from repro.workloads.trace import InstructionRecord, OpClass


def alu(pc):
    return InstructionRecord(pc=pc, op=OpClass.IALU, dest=5, srcs=(1,))


def branch(pc, taken, target=0x500000):
    return InstructionRecord(pc=pc, op=OpClass.BRANCH, srcs=(1,),
                             taken=taken, target=target)


def make_fetch(records, **kw):
    return FetchUnit(AnnotatedTrace(records), **kw)


class TestFetchWidth:
    def test_fetches_up_to_width(self):
        fetch = make_fetch([alu(0x400000 + 4 * i) for i in range(20)],
                           width=8)
        assert fetch.tick(0) == 8
        assert len(fetch.queue) == 8

    def test_queue_capacity_respected(self):
        fetch = make_fetch([alu(0x400000 + 4 * i) for i in range(100)],
                           width=8, queue_size=10)
        fetch.tick(0)
        fetch.tick(1)
        assert len(fetch.queue) == 10

    def test_stops_after_two_basic_blocks(self):
        """Table 1: fetch width 8 across up to 2 basic blocks."""
        records = []
        for i in range(8):
            if i in (1, 3, 5):
                records.append(branch(0x400000 + 4 * i, taken=False))
            else:
                records.append(alu(0x400000 + 4 * i))
        fetch = make_fetch(records, width=8, max_blocks=2)
        # Predictors start weakly-not-taken, so not-taken branches are
        # predicted correctly and only block counting stops fetch.
        fetched = fetch.tick(0)
        assert fetched == 4  # stops after the second branch

    def test_exhaustion(self):
        fetch = make_fetch([alu(0x400000)])
        assert fetch.tick(0) == 1
        assert fetch.tick(1) == 0
        assert fetch.exhausted


class TestBranchHandling:
    def test_correctly_predicted_not_taken_continues(self):
        records = [branch(0x400000, taken=False)] + [
            alu(0x400004 + 4 * i) for i in range(4)
        ]
        fetch = make_fetch(records)
        assert fetch.tick(0) == 5
        assert not fetch.stalled_for_redirect

    def test_mispredicted_branch_stalls_fetch(self):
        """First-seen taken branch: counters predict not-taken -> redirect."""
        records = [branch(0x400000, taken=True)] + [alu(0x400100)] * 4
        fetch = make_fetch(records)
        assert fetch.tick(0) == 1
        assert fetch.stalled_for_redirect
        assert fetch.queue[0].mispredicted
        assert fetch.tick(1) == 0  # stalled

    def test_redirect_resume_after_refill(self):
        records = [branch(0x400000, taken=True)] + [alu(0x400100)] * 4
        fetch = make_fetch(records, refill_penalty=10)
        fetch.tick(0)
        seq = fetch.queue[0].seq
        fetch.redirect_arrived(seq, cycle=20)
        assert not fetch.stalled_for_redirect
        assert fetch.tick(25) == 0  # still refilling (resume at 30)
        assert fetch.tick(30) == 4

    def test_redirect_for_wrong_branch_ignored(self):
        records = [branch(0x400000, taken=True)] + [alu(0x400100)] * 2
        fetch = make_fetch(records)
        fetch.tick(0)
        fetch.redirect_arrived(999, cycle=5)
        assert fetch.stalled_for_redirect

    def test_btb_miss_on_taken_branch_redirects(self):
        """Train the direction predictor to taken; a fresh BTB entry is
        still missing the first time, forcing a redirect."""
        target = 0x500000
        records = []
        for i in range(6):
            records.append(branch(0x400000, taken=True, target=target))
        fetch = make_fetch(records, refill_penalty=0)
        cycle = 0
        redirects = 0
        while not fetch.exhausted and cycle < 200:
            fetched = fetch.tick(cycle)
            if fetch.stalled_for_redirect:
                redirects += 1
                fetch.redirect_arrived(fetch.queue[-1].seq, cycle)
            fetch.queue.clear()
            cycle += 1
        # Once both direction and target are learned, no more redirects.
        assert redirects >= 1
        assert redirects < 6

    def test_counts_branch_stats(self):
        records = [branch(0x400000 + 8 * i, taken=(i % 2 == 0))
                   for i in range(10)]
        fetch = make_fetch(records, refill_penalty=0, max_blocks=20)
        cycle = 0
        while not fetch.exhausted and cycle < 500:
            fetch.tick(cycle)
            if fetch.stalled_for_redirect:
                fetch.redirect_arrived(fetch.queue[-1].seq, cycle)
            cycle += 1
        assert fetch.predictor_counts()[0] == 10


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_fetch([], width=0)
        with pytest.raises(ValueError):
            make_fetch([], queue_size=0)
        with pytest.raises(ValueError):
            make_fetch([], refill_penalty=-1)
