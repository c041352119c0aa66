"""The instruction stream with its front-end behaviour precomputed.

Trace generation, branch prediction, BTB lookups, I-cache accesses and
narrow-width prediction are pure functions of *stream order*, not of
timing:

* the trace is walked in stream order regardless of stalls;
* the branch predictor and BTB train at fetch, in stream order;
* the I-cache sees accesses in stream order (a miss re-accesses the same
  line on retry, with no other access interleaved);
* the narrow-width predictor trains at in-order dispatch -- the k-th
  integer-writing record is always its k-th call.

So the whole front end is evaluated once per stream and replayed by
:class:`~repro.frontend.fetch.FetchUnit`; :func:`annotated_trace`
memoizes the latest (benchmark, seed, I-cache geometry), so a sweep
that runs a benchmark's models back to back pays the front-end cost
once per benchmark instead of once per run.

The narrow predictor's end-of-run accuracy counters depend on *where*
the run stops, which is timing-dependent -- so per-call prefix snapshots
are kept, and the processor installs ``prefix[ncalls]`` after the run.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..frontend.bpred import BranchTargetBuffer, CombinedPredictor
from ..memory.cache import SetAssocCache
from ..operands.narrow import NarrowWidthPredictor
from .generator import TraceGenerator
from .spec2k import profile
from .trace import InstructionRecord, OpClass

#: Records annotated per :meth:`AnnotatedTrace.ensure` refill.
CHUNK = 512

#: I-cache line size used by the processor (bytes).
ICACHE_LINE = 64


class AnnotatedTrace:
    """A lazily-grown instruction stream with precomputed front-end state.

    ``records`` is any iterator of :class:`InstructionRecord`; a finite
    one ends the stream (fetch then reports ``exhausted``).  ``icache``
    is the L1 I-cache's (size in KB, associativity); ``None`` means
    every fetch hits.  ``footprint`` lists the (base, size) data regions
    the processor prewarms its caches over.

    Parallel arrays, indexed by sequence number (= stream position):

    * ``records[i]`` -- the immutable :class:`InstructionRecord`;
    * ``miss[i]`` -- the I-cache missed on this record's first access;
    * ``pred_taken[i]`` / ``mispredicted[i]`` / ``btb_miss[i]`` -- branch
      annotations (zero for non-branches);
    * ``narrow_pred[i]`` -- the narrow-width prediction for records that
      write an integer register (zero otherwise).

    ``narrow_prefix[k]`` holds the predictor's four accuracy counters
    after its first ``k`` calls.
    """

    def __init__(self, records: Iterable[InstructionRecord],
                 icache: Optional[Tuple[int, int]] = None,
                 footprint: Sequence[Tuple[int, int]] = ()) -> None:
        self._walk = iter(records)
        self._icache = None
        if icache is not None:
            size_kb, assoc = icache
            self._icache = SetAssocCache(size_kb * 1024, assoc,
                                         ICACHE_LINE, name="L1I")
        self.predictor = CombinedPredictor()
        self._btb = BranchTargetBuffer()
        self._narrow = NarrowWidthPredictor()
        self.records: List[InstructionRecord] = []
        self.miss = bytearray()
        self.pred_taken = bytearray()
        self.mispredicted = bytearray()
        self.btb_miss = bytearray()
        self.narrow_pred = bytearray()
        #: Narrow-predictor accuracy counters after k calls:
        #: (narrow_results, narrow_predicted_and_narrow,
        #:  predicted_narrow, predicted_narrow_but_wide).
        self.narrow_prefix: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        self.footprint = tuple(footprint)
        #: The record iterator ran out: ``records`` is the whole stream.
        self.finished = False

    def __len__(self) -> int:
        return len(self.records)

    def ensure(self, count: int) -> None:
        """Grow the annotated stream to at least ``count`` records, or
        to the whole stream if it is shorter."""
        while len(self.records) < count and not self.finished:
            self._extend(CHUNK)

    def _extend(self, count: int) -> None:
        icache = self._icache
        predictor = self.predictor
        btb = self._btb
        narrow = self._narrow
        records = self.records
        miss = self.miss
        pred_taken = self.pred_taken
        mispredicted = self.mispredicted
        btb_miss = self.btb_miss
        narrow_pred = self.narrow_pred
        prefix = self.narrow_prefix
        start = len(records)
        for rec in islice(self._walk, count):
            records.append(rec)
            if icache is None or icache.access(rec.pc):
                miss.append(0)
            else:
                # Fetch retries the record after the miss penalty,
                # re-accessing the (now resident) line; nothing else
                # touches the I-cache in between.
                miss.append(1)
                icache.access(rec.pc)
            if rec.op is OpClass.BRANCH:
                prediction = predictor.predict_and_train(rec.pc, rec.taken)
                wrong = prediction != rec.taken
                missed_btb = False
                if rec.taken:
                    target = btb.lookup(rec.pc)
                    if not wrong and target != rec.target:
                        missed_btb = True
                    btb.install(rec.pc, rec.target)
                pred_taken.append(1 if prediction else 0)
                mispredicted.append(1 if wrong else 0)
                btb_miss.append(1 if missed_btb else 0)
                narrow_pred.append(0)
            else:
                pred_taken.append(0)
                mispredicted.append(0)
                btb_miss.append(0)
                if rec.writes_int_register:
                    narrow_pred.append(
                        1 if narrow.predict_and_train(rec.pc, rec.is_narrow)
                        else 0
                    )
                    prefix.append((
                        narrow.narrow_results,
                        narrow.narrow_predicted_and_narrow,
                        narrow.predicted_narrow,
                        narrow.predicted_narrow_but_wide,
                    ))
                else:
                    narrow_pred.append(0)
        if len(records) - start < count:
            self.finished = True


_CACHE: Dict[Tuple[str, int, int, int], AnnotatedTrace] = {}


def annotated_trace(benchmark: str, seed: int, icache_size_kb: int,
                    icache_assoc: int) -> AnnotatedTrace:
    """The (memoized) annotated stream for one benchmark/seed.

    The key covers everything that shapes the annotations; every run
    sharing it -- e.g. the ten models of one Table 3 benchmark -- reuses
    one front-end evaluation.  The memo holds one key: a new key drops
    the previous trace.
    """
    key = (benchmark, seed, icache_size_kb, icache_assoc)
    cached = _CACHE.get(key)
    if cached is None:
        _CACHE.clear()
        generator = TraceGenerator(profile(benchmark), seed=seed)
        cached = _CACHE[key] = AnnotatedTrace(
            generator.stream_forever(), (icache_size_kb, icache_assoc),
            generator.data_footprint(),
        )
    return cached


def clear_cache() -> None:
    """Drop the memoized trace, as a fresh process starts."""
    _CACHE.clear()
