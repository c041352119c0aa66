"""The dynamically scheduled partitioned processor (Section 4).

Ties every substrate together into a cycle-level model:

* fetch (branch prediction, redirect stalls) fills the fetch queue;
* dispatch renames, steers instructions to clusters, and inserts operand
  copies ("copy instructions") for cross-cluster communication;
* each cluster wakes and selects ready instructions onto its FUs;
* loads/stores send their effective addresses to the centralized LSQ and
  cache over the interconnect -- optionally with the paper's accelerated
  partial-address pipeline;
* results cross clusters on dynamically selected wire planes;
* mispredicted branches send a redirect signal back to the front end;
* in-order commit retires up to eight instructions per cycle.

Phase order within a cycle: deliveries -> scheduled events -> commit ->
issue -> dispatch -> fetch -> network arbitration.  Scheduled events are
always strictly in the future, so the wheel never re-enters a cycle.

Execution strategy (none of it changes what happens, only when the host
does the work):

* the front end replays a precomputed
  :class:`~repro.workloads.annotate.AnnotatedTrace`;
* pending work lives in an :class:`~repro.core.wheel.EventWheel`; when
  no stage can make progress, the core jumps straight to the next cycle
  holding an event instead of stepping through idle cycles;
* network transfers come from a free list and dispatch their arrivals
  through per-kind handler tables instead of per-transfer closures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Union

from ..clusters.cluster import Cluster
from ..clusters.steering import SteeringHeuristic, SteeringWeights
from ..frontend.fetch import FetchUnit
from ..interconnect.message import Transfer, TransferKind
from ..interconnect.network import Network
from ..interconnect.topology import CACHE_NODE, Topology, cluster_node
from ..memory.depspec import MemoryDependencePredictor
from ..memory.hierarchy import HitLevel, MemoryHierarchy
from ..memory.lsq import LoadStoreQueue
from ..memory.pipeline import CachePipeline
from ..operands.frequent import FrequentValueTable
from ..operands.narrow import NarrowWidthPredictor
from ..power import GatingPolicy
from ..telemetry import NULL_TELEMETRY, EventKind, Telemetry, event_names
from ..wires import WireClass
from ..workloads.annotate import AnnotatedTrace
from ..workloads.trace import NUM_ARCH_REGS, InstructionRecord, OpClass
from .config import InterconnectConfig, ProcessorConfig
from .instruction import DynInstr
from .wheel import EventWheel

#: Abort if commit makes no progress for this many cycles.
DEADLOCK_HORIZON = 50_000

# Enum members the per-instruction paths name, as module globals: a
# global load is much cheaper than an enum-class attribute load.
_STORE, _BRANCH = OpClass.STORE, OpClass.BRANCH
_OPERAND, _MISPREDICT = TransferKind.OPERAND, TransferKind.MISPREDICT
_LOAD_ADDRESS, _LOAD_DATA = TransferKind.LOAD_ADDRESS, TransferKind.LOAD_DATA
_STORE_ADDRESS = TransferKind.STORE_ADDRESS
_STORE_DATA = TransferKind.STORE_DATA

#: Attribute names of the ``cache_access`` event.
_CACHE_ATTRS = event_names("level", "seq")


@dataclass
class ProcessorStats:
    """Counters accumulated during the measured window."""

    cycles: int = 0
    committed: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    redirects: int = 0
    ordering_violations: int = 0
    cross_cluster_operands: int = 0
    local_operands: int = 0
    hit_levels: Dict[HitLevel, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.committed / self.cycles


class ClusteredProcessor:
    """Cycle-level model of the paper's evaluation platform.

    ``trace`` is an :class:`AnnotatedTrace` (see
    :func:`~repro.workloads.annotate.annotated_trace`) or any iterator of
    instruction records, which is annotated with this configuration's
    I-cache.
    """

    def __init__(self, config: ProcessorConfig,
                 interconnect: InterconnectConfig,
                 trace: Union[AnnotatedTrace, Iterable[InstructionRecord]],
                 faults: Optional["FaultInjector"] = None,
                 telemetry: Optional[Telemetry] = None,
                 gating: Optional[GatingPolicy] = None) -> None:
        if not isinstance(trace, AnnotatedTrace):
            trace = AnnotatedTrace(
                trace, (config.icache_size_kb, config.icache_assoc))
        self._trace = trace
        self.config = config
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.topology = Topology(
            config.num_clusters, config.latency_scale,
            interconnect.flags.transmission_line_lwires)
        composition = interconnect.build_composition()
        self.network = Network(self.topology, composition,
                               interconnect.flags, injector=faults,
                               telemetry=self.telemetry, gating=gating)
        self.network.on_plane_kill = self._plane_killed
        self.clusters = [
            Cluster(i, cluster_node(i), config.issue_queue_size,
                    config.regfile_size)
            for i in range(config.num_clusters)
        ]
        self.steering = SteeringHeuristic(
            self.clusters, self.topology, SteeringWeights(),
            telemetry=self.telemetry,
        )
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.cache_pipeline = CachePipeline(self.hierarchy)
        partial = (
            interconnect.flags.lwire_partial_address
            and composition.has_plane(WireClass.L)
        )
        self.dependence_predictor = (
            MemoryDependencePredictor()
            if interconnect.flags.memory_dependence_speculation else None
        )
        self.lsq = LoadStoreQueue(
            self.cache_pipeline, config.lsq_size,
            partial_enabled=partial,
            load_done=self._load_data_ready,
            dependence_predictor=self.dependence_predictor,
            on_violation=self._ordering_violation,
        )
        self.fetch = FetchUnit(
            trace,
            width=config.fetch_width,
            queue_size=config.fetch_queue_size,
            max_blocks=config.max_fetch_blocks,
            refill_penalty=config.frontend_refill,
            icache_miss_penalty=config.icache_miss_penalty,
        )
        #: Holds the narrow predictor's accuracy counters as of the last
        #: run (the annotation made the predictions ahead of time).
        self.narrow_predictor = NarrowWidthPredictor()
        #: predict_and_train calls replayed so far; indexes the
        #: annotation's narrow-counter prefix snapshots.
        self._narrow_calls = 0
        # Frequent-value compaction (extension, off unless the policy
        # enables it).  One logical table, assumed replicated coherently
        # at every cluster -- updates are a deterministic function of
        # the committed value stream.
        self.frequent_values = (
            FrequentValueTable()
            if interconnect.flags.lwire_frequent_value else None
        )
        self.rename: List[Optional[DynInstr]] = [None] * (2 * NUM_ARCH_REGS)
        self.rob: Deque[DynInstr] = deque()
        self._wheel = EventWheel()
        self.cycle = 0
        self.stats = ProcessorStats()
        self._last_commit_cycle = 0
        self._node_of = [cluster_node(i) for i in range(config.num_clusters)]
        self._pool: List[Transfer] = []
        net = self.network
        net.pool = self._pool
        net.partial_handlers = {
            TransferKind.LOAD_ADDRESS: self._arrive_partial_address,
            TransferKind.STORE_ADDRESS: self._arrive_partial_address,
        }
        net.final_handlers = {
            TransferKind.OPERAND: self._arrive_operand,
            TransferKind.LOAD_ADDRESS: self._arrive_full_address,
            TransferKind.STORE_ADDRESS: self._arrive_full_address,
            TransferKind.STORE_DATA: self._arrive_store_data,
            TransferKind.LOAD_DATA: self._arrive_load_data,
            TransferKind.MISPREDICT: self._arrive_redirect,
        }

    def prewarm(self, footprint=None) -> None:
        """Analytically warm the caches over a workload's data regions
        (default: the trace's footprint).

        Stands in for the paper's long warmup phase: the L2 holds
        whatever one pass over each region leaves resident; the L1 gets
        the (small) last region, typically the stack.  Short simulated
        warmup then settles the L1, TLB and predictors.
        """
        if footprint is None:
            footprint = self._trace.footprint
        regions = tuple(footprint)
        for base, size in regions:
            self.hierarchy.l2.prewarm_region(base, size)
        if regions:
            self.hierarchy.l1.prewarm_region(*regions[-1])

    def _plane_killed(self, channel: str, plane: WireClass,
                      cycle: int) -> None:
        """A wire plane died: bias steering away from the crippled link."""
        cluster = self.topology.cluster_of(channel)
        if cluster is not None:
            self.steering.note_degraded_link(cluster, cycle)

    # -- top-level driver -----------------------------------------------------

    def run(self, instructions: int, warmup: int = 0,
            max_cycles: Optional[int] = None) -> ProcessorStats:
        """Simulate until ``instructions`` commit in the measured window.

        ``warmup`` instructions commit first without being measured
        (caches, predictors and the network stay warm; counters reset).
        """
        if instructions < 1:
            raise ValueError("must simulate at least one instruction")
        if warmup:
            self._run_until(self.stats.committed + warmup, max_cycles)
            self.reset_measurement()
        self._run_until(self.stats.committed + instructions, max_cycles)
        # The annotation trained the narrow predictor ahead of time; the
        # run's timing decides where it stops, so install the accuracy
        # counters as of this run's last predict_and_train call.
        npred = self.narrow_predictor
        (npred.narrow_results,
         npred.narrow_predicted_and_narrow,
         npred.predicted_narrow,
         npred.predicted_narrow_but_wide) = \
            self._trace.narrow_prefix[self._narrow_calls]
        self.network.stats.flush()
        return self.stats

    def release(self) -> None:
        """Break this finished processor's reference cycles; it cannot
        run again.  The network's handler tables and kill hook, the LSQ's
        callbacks and the wheel's entries hold its bound methods, and a
        queued segment's ``peers`` hold the channel queueing it."""
        net = self.network
        net.final_handlers = {}
        net.partial_handlers = {}
        net.on_plane_kill = None
        self.lsq.load_done = None
        self.lsq.on_violation = None
        self._wheel = None
        for chan in net._chans.values():
            chan.queue.clear()

    def _run_until(self, target_committed: int,
                   max_cycles: Optional[int]) -> None:
        stats = self.stats
        wheel = self._wheel
        net = self.network
        fetch = self.fetch
        lsq = self.lsq
        rob = self.rob
        clusters = self.clusters
        while stats.committed < target_committed:
            if max_cycles is not None and stats.cycles >= max_cycles:
                break
            self.step()
            if self.cycle - self._last_commit_cycle > DEADLOCK_HORIZON:
                raise RuntimeError(
                    f"no commit for {DEADLOCK_HORIZON} cycles at cycle "
                    f"{self.cycle}; rob={len(rob)}, "
                    f"head={rob[0] if rob else None}"
                )
            # Idle-skip: if no stage can make progress next cycle, jump
            # straight to the next cycle holding pending work.  Every
            # check is conservative -- any doubt means "step normally".
            if fetch.queue:
                continue
            if fetch._redirect_seq is None and self.cycle >= fetch._resume_cycle:
                continue
            if net._active:
                continue
            if rob:
                head = rob[0]
                if head.completed and (
                        head.rec.op is not _STORE
                        or lsq.store_ready_to_commit(head)):
                    continue
            busy = False
            for cluster in clusters:
                if cluster._ready_instrs:
                    busy = True
                    break
            if busy:
                continue
            target = wheel.next_cycle()
            net_next = net.next_event_cycle()
            if net_next is not None and (target is None or net_next < target):
                target = net_next
            if fetch._redirect_seq is None and fetch._resume_cycle > self.cycle:
                if target is None or fetch._resume_cycle < target:
                    target = fetch._resume_cycle
            if target is None or target <= self.cycle:
                continue
            if max_cycles is not None:
                limit = self.cycle + (max_cycles - stats.cycles)
                if target > limit:
                    target = limit
            horizon = self._last_commit_cycle + DEADLOCK_HORIZON + 1
            if target > horizon:
                target = horizon
            if target > self.cycle:
                stats.cycles += target - self.cycle
                self.cycle = target

    def step(self) -> None:
        """Advance one cycle."""
        cycle = self.cycle
        net = self.network
        due = net._delivery_cycles
        if due and due[0] <= cycle:
            net.deliver_due(cycle)
        for fn, arg in self._wheel.pop_due(cycle):
            fn(arg)
        rob = self.rob
        if rob and rob[0].completed:
            self._commit(cycle)
        for cluster in self.clusters:
            if cluster._ready_instrs:
                self._issue(cluster, cycle)
        fetch = self.fetch
        if fetch.queue:
            self._dispatch(cycle)
        if fetch._redirect_seq is None and cycle >= fetch._resume_cycle:
            fetch.tick(cycle)
        if net._active or net._pending_kills or net._retries:
            net.tick(cycle)
        self.stats.cycles += 1
        self.cycle = cycle + 1

    def reset_measurement(self) -> None:
        """Zero the measured counters (end of warmup)."""
        self.stats = ProcessorStats()
        self.network.stats.reset()
        if self.network.power is not None:
            self.network.power.begin_window(self.cycle)
        self.lsq.loads_disambiguated = 0
        self.lsq.false_dependences = 0
        self.lsq.true_forwards = 0
        self.lsq.early_ram_starts = 0
        self._last_commit_cycle = self.cycle

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        budget = self.config.dispatch_width
        queue = self.fetch.queue
        rob = self.rob
        rob_size = self.config.rob_size
        lsq = self.lsq
        rename = self.rename
        narrow_pred = self._trace.narrow_pred
        fv = self.frequent_values
        while budget > 0 and queue:
            if len(rob) >= rob_size:
                return
            instr = queue[0]
            rec = instr.rec
            op = rec.op
            if op._mem and not lsq.has_room():
                return
            producers = []
            for reg in rec.srcs:
                producer = rename[reg]
                if producer is not None and not producer.committed:
                    producers.append((reg, producer))
            cluster = self.steering.choose(instr, producers, cycle)
            if cluster is None:
                return
            queue.popleft()
            budget -= 1
            cluster.admit(instr)
            instr.dispatch_cycle = cycle
            rob.append(instr)
            if op._mem:
                lsq.allocate(instr)
            dest = rec.dest
            if 0 <= dest < NUM_ARCH_REGS:  # writes an integer register
                # Replay the annotation's prediction: in-order dispatch
                # makes this the (narrow_calls)-th predict_and_train call
                # in stream order.
                instr.narrow_predicted = narrow_pred[instr.seq] != 0
                self._narrow_calls += 1
                if fv is not None:
                    fv.observe(rec.value)
            self._rename(instr, producers, cluster, cycle)
            if dest >= 0:
                rename[dest] = instr

    def _rename(self, instr: DynInstr, producers, cluster: Cluster,
                cycle: int) -> None:
        outstanding = 0
        data_outstanding = 0
        home = cluster.index
        pcs = []
        rename = self.rename
        # A store's first source is its address operand (gates AGEN and
        # issue); remaining sources are the data value, which ships to
        # the LSQ independently of issue.
        is_store = instr.rec.op is _STORE
        for idx, reg in enumerate(instr.rec.srcs):
            producer = rename[reg]
            if producer is None or producer.committed:
                continue
            pcs.append(producer.rec.pc)
            is_data = is_store and idx >= 1
            if home == producer.cluster:
                avail = producer.complete_cycle
            else:
                remote = producer.avail_cycle
                avail = -1 if remote is None else remote.get(home, -1)
            if avail != -1 and avail <= cycle:
                continue
            if is_data:
                data_outstanding += 1
            else:
                outstanding += 1
            if producer.waiters is None:
                producer.waiters = {}
            producer.waiters.setdefault(home, []).append((instr, is_data))
            if (producer.completed and home != producer.cluster
                    and not producer.transfer_started >> home & 1):
                # Value already sitting in a remote register file at
                # dispatch time: the paper's first PW-Wire criterion.
                self._start_operand_transfer(
                    producer, home, cycle, ready_at_dispatch=True
                )
        instr.producer_pcs = pcs
        instr.outstanding = outstanding
        instr.data_outstanding = data_outstanding
        if is_store and data_outstanding == 0:
            self._wheel.schedule(cycle + 1, self._send_store_data, instr)
        if outstanding == 0:
            cluster.make_ready(instr)

    # -- issue and execute --------------------------------------------------------

    def _issue(self, cluster: Cluster, cycle: int) -> None:
        wheel = self._wheel
        for instr in cluster.select():
            instr.issue_cycle = cycle
            op = instr.rec.op
            done = cycle + op._lat
            if op._mem:
                instr.addr_known_cycle = done
                wheel.schedule(done, self._send_address, instr)
            else:
                wheel.schedule(done, self._complete, instr)

    def _complete(self, instr: DynInstr) -> None:
        """A non-memory instruction finished executing."""
        cycle = self.cycle
        self._result_ready(instr, cycle)
        if instr.rec.op is _BRANCH:
            self.stats.branches += 1
            if instr.mispredicted or instr.btb_miss:
                self._send_redirect(instr, cycle)

    def _result_ready(self, instr: DynInstr, cycle: int) -> None:
        """The result exists in its home cluster at ``cycle``: wake the
        consumers there and ship a copy toward every other waiting one."""
        instr.completed = True
        instr.complete_cycle = cycle
        self._wake_cluster(instr, instr.cluster, cycle)
        if instr.waiters:
            for target in instr.waiters:
                if not instr.transfer_started >> target & 1:
                    self._start_operand_transfer(instr, target, cycle,
                                                 ready_at_dispatch=False)

    def _wake_cluster(self, producer: DynInstr, cluster_index: int,
                      cycle: int) -> None:
        waiters = producer.waiters
        if waiters is None:
            return
        waiters = waiters.pop(cluster_index, None)
        if not waiters:
            return
        for consumer, is_data in waiters:
            if is_data:
                consumer.data_outstanding -= 1
                if consumer.data_outstanding == 0:
                    self._send_store_data(consumer)
                continue
            consumer.outstanding -= 1
            if consumer.outstanding == 0 and not consumer.issued:
                self.clusters[consumer.cluster].make_ready(consumer)
                if len(consumer.producer_pcs) > 1:
                    others = [pc for pc in consumer.producer_pcs
                              if pc != producer.rec.pc]
                    self.steering.train_criticality(producer.rec.pc, others)

    # -- pooled transfers -------------------------------------------------------

    def _acquire(self, kind: TransferKind, src: str, dst: str,
                 seq: int, payload) -> Transfer:
        pool = self._pool
        if pool:
            t = pool.pop()
            t.kind = kind
            t.src = src
            t.dst = dst
            t.bits = kind._bits
            t.seq = seq
            t.ready_at_dispatch = False
            t.narrow_predicted = False
            t.narrow_actual = False
            t.fv_encodable = False
            t.payload = payload
        else:
            t = Transfer(kind=kind, src=src, dst=dst, seq=seq,
                         payload=payload)
            t._pooled = True
        return t

    # -- operand transport -----------------------------------------------------

    def _start_operand_transfer(self, producer: DynInstr, target: int,
                                cycle: int, ready_at_dispatch: bool) -> None:
        producer.transfer_started |= 1 << target
        self.stats.cross_cluster_operands += 1
        t = self._acquire(_OPERAND,
                          self._node_of[producer.cluster],
                          self._node_of[target],
                          producer.seq, producer)
        t.ready_at_dispatch = ready_at_dispatch
        t.narrow_predicted = producer.narrow_predicted
        t.narrow_actual = producer.rec.is_narrow
        if self.frequent_values is not None:
            t.fv_encodable = self._fv_encodable(producer)
        t._target = target
        self.network.submit(t, cycle)

    def _fv_encodable(self, producer: DynInstr) -> bool:
        """Can this result travel as a frequent-value index?"""
        rec = producer.rec
        return rec.writes_int_register and self.frequent_values.contains(
            rec.value
        )

    def _arrive_operand(self, transfer: Transfer, arrival: int) -> None:
        producer = transfer.payload
        target = transfer._target
        if producer.avail_cycle is None:
            producer.avail_cycle = {}
        producer.avail_cycle[target] = arrival
        self._wake_cluster(producer, target, arrival)

    # -- memory pipeline ----------------------------------------------------------

    def _send_address(self, instr: DynInstr) -> None:
        """AGEN finished: ship the effective address to the LSQ/cache."""
        cycle = self.cycle
        is_store = instr.rec.op is _STORE
        kind = _STORE_ADDRESS if is_store else _LOAD_ADDRESS
        t = self._acquire(kind, self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, cycle)
        if is_store:
            instr.completed = True
            instr.complete_cycle = cycle

    def _arrive_partial_address(self, transfer: Transfer,
                                arrival: int) -> None:
        instr = transfer.payload
        self.lsq.on_partial_address(instr, instr.rec.addr, arrival)

    def _arrive_full_address(self, transfer: Transfer, arrival: int) -> None:
        instr = transfer.payload
        self.lsq.on_full_address(instr, instr.rec.addr, arrival)

    def _send_store_data(self, instr: DynInstr) -> None:
        """The store's data value is in its cluster: ship it to the LSQ."""
        t = self._acquire(_STORE_DATA,
                          self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, self.cycle)

    def _arrive_store_data(self, transfer: Transfer, arrival: int) -> None:
        self.lsq.on_store_data(transfer.payload, arrival)

    def _load_data_ready(self, instr: DynInstr, cycle: int,
                         level: HitLevel) -> None:
        """LSQ callback: the load's value can leave the cache at ``cycle``."""
        stats = self.stats
        stats.hit_levels[level] = stats.hit_levels.get(level, 0) + 1
        tel = self.telemetry
        if tel.enabled:
            tel.count(f"cache.{level._value_}")
            tel.emit(self.cycle, EventKind.CACHE_ACCESS, _CACHE_ATTRS,
                     (level._value_, instr.seq))
        if cycle <= self.cycle:
            cycle = self.cycle + 1
        self._wheel.schedule(cycle, self._send_load_data, instr)

    def _send_load_data(self, instr: DynInstr) -> None:
        t = self._acquire(_LOAD_DATA, CACHE_NODE,
                          self._node_of[instr.cluster],
                          instr.seq, instr)
        t.narrow_predicted = instr.narrow_predicted
        t.narrow_actual = instr.rec.is_narrow
        if self.frequent_values is not None:
            t.fv_encodable = self._fv_encodable(instr)
        self.network.submit(t, self.cycle)

    def _arrive_load_data(self, transfer: Transfer, arrival: int) -> None:
        self._result_ready(transfer.payload, arrival)

    def _ordering_violation(self, instr: DynInstr, cycle: int) -> None:
        """A speculated load turned out to conflict with an older store.

        Modelled as a front-end squash: fetch stalls for the configured
        penalty (the load's consumers keep their values -- the timing
        cost, not the dataflow repair, is what the evaluation needs).
        """
        self.stats.ordering_violations += 1
        self.fetch.stall_until(cycle + self.config.violation_penalty)

    # -- redirects -------------------------------------------------------------

    def _send_redirect(self, instr: DynInstr, cycle: int) -> None:
        self.stats.redirects += 1
        t = self._acquire(_MISPREDICT,
                          self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, cycle)

    def _arrive_redirect(self, transfer: Transfer, arrival: int) -> None:
        self.fetch.redirect_arrived(transfer.payload.seq, arrival)

    # -- commit ------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        budget = self.config.commit_width
        rob = self.rob
        while budget > 0 and rob:
            head = rob[0]
            if not head.completed:
                return
            op = head.rec.op
            if op is _STORE and not self.lsq.store_ready_to_commit(head):
                return
            rob.popleft()
            budget -= 1
            head.committed = True
            self._last_commit_cycle = cycle
            self.clusters[head.cluster].release_register(head)
            if op._mem:
                self.lsq.release(head)
                if op is _STORE:
                    self.hierarchy.store_commit(head.rec.addr, cycle)
                    self.stats.stores += 1
                else:
                    self.stats.loads += 1
            dest = head.rec.dest
            if dest >= 0 and self.rename[dest] is head:
                self.rename[dest] = None
            self.stats.committed += 1
