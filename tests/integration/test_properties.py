"""Property-based tests of system-level invariants (hypothesis)."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import InterconnectConfig, ProcessorConfig, wire_counts
from repro.core.processor import ClusteredProcessor
from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.network import Network
from repro.interconnect.plane import LinkComposition
from repro.interconnect.topology import Topology
from repro.wires import WireClass
from repro.workloads.trace import InstructionRecord, OpClass

# -- strategies -------------------------------------------------------------

ops = st.sampled_from([OpClass.IALU, OpClass.IMUL, OpClass.FPALU,
                       OpClass.LOAD, OpClass.STORE])


@st.composite
def instruction_records(draw):
    op = draw(ops)
    is_fp = op.is_fp
    base = 32 if is_fp else 0
    dest = -1 if op is OpClass.STORE else base + draw(
        st.integers(min_value=0, max_value=31)
    )
    n_srcs = draw(st.integers(min_value=1, max_value=2))
    srcs = tuple(
        base + draw(st.integers(min_value=0, max_value=31))
        for _ in range(n_srcs)
    )
    addr = 0
    if op.is_memory:
        addr = 0x1000_0000 + 8 * draw(
            st.integers(min_value=0, max_value=4095)
        )
    width = draw(st.integers(min_value=1, max_value=64))
    return InstructionRecord(pc=0x400000 + 4 * draw(
        st.integers(min_value=0, max_value=255)
    ), op=op, dest=dest, srcs=srcs, addr=addr, value_width=width)


record_lists = st.lists(instruction_records(), min_size=4, max_size=24)

proc_settings = settings(max_examples=12, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def build_cpu(records, wires=None):
    config = ProcessorConfig(num_clusters=4)
    icfg = InterconnectConfig(wires=wires or wire_counts(B=144))
    return ClusteredProcessor(config, icfg, itertools.cycle(records))


# -- processor invariants -----------------------------------------------------

@proc_settings
@given(records=record_lists)
def test_always_commits_requested_instructions(records):
    """No record mix may deadlock the pipeline."""
    cpu = build_cpu(records)
    stats = cpu.run(150)
    assert stats.committed >= 150


@proc_settings
@given(records=record_lists)
def test_processor_deterministic(records):
    a = build_cpu(records).run(120)
    b = build_cpu(records).run(120)
    assert a.cycles == b.cycles
    assert a.committed == b.committed


@proc_settings
@given(records=record_lists)
def test_heterogeneous_never_deadlocks(records):
    cpu = build_cpu(records, wires=wire_counts(B=144, PW=288, L=36))
    stats = cpu.run(150)
    assert stats.committed >= 150


@proc_settings
@given(records=record_lists)
def test_ipc_within_machine_limits(records):
    """Committed IPC can never exceed the commit width."""
    cpu = build_cpu(records)
    stats = cpu.run(150)
    assert stats.ipc <= cpu.config.commit_width


# -- network invariants --------------------------------------------------------

transfer_lists = st.lists(
    st.tuples(
        st.sampled_from(["c0", "c1", "c2", "c3", "cache"]),
        st.sampled_from(["c0", "c1", "c2", "c3", "cache"]),
        st.integers(min_value=0, max_value=10),  # submit cycle
    ),
    min_size=1, max_size=40,
)

net_settings = settings(max_examples=25, deadline=None)


def _run_network(transfers, topology, wires):
    net = Network(topology, LinkComposition(wires))
    arrivals = []
    # Each transfer carries its submit cycle as payload.
    net.final_handlers[TransferKind.OPERAND] = \
        lambda t, c: arrivals.append((t.payload, c))
    submitted = 0
    pairs = [(s, d, c) for s, d, c in transfers if s != d]
    pairs.sort(key=lambda p: p[2])
    for cycle in range(600):
        net.deliver_due(cycle)
        while pairs and pairs[0][2] <= cycle:
            src, dst, _ = pairs.pop(0)
            net.submit(
                Transfer(kind=TransferKind.OPERAND, src=src, dst=dst,
                         payload=cycle),
                cycle,
            )
            submitted += 1
        net.tick(cycle)
        if not pairs and net.idle():
            break
    return submitted, arrivals, net


@net_settings
@given(transfers=transfer_lists)
def test_conservation_and_latency_crossbar(transfers):
    """Every submitted transfer arrives exactly once, never earlier than
    the wire latency allows."""
    submitted, arrivals, net = _run_network(
        transfers, Topology(4), {WireClass.B: 144}
    )
    assert len(arrivals) == submitted
    for submit_cycle, arrive_cycle in arrivals:
        assert arrive_cycle >= submit_cycle + 2  # B-Wire crossbar


@net_settings
@given(transfers=transfer_lists)
def test_conservation_hierarchical(transfers):
    mapped = [(f"c{hash(s) % 16}", f"c{hash(d) % 16}", c)
              for s, d, c in transfers]
    submitted, arrivals, _ = _run_network(
        mapped, Topology(16),
        {WireClass.B: 144, WireClass.L: 36},
    )
    assert len(arrivals) == submitted


@net_settings
@given(transfers=transfer_lists)
def test_energy_matches_traffic(transfers):
    submitted, _, net = _run_network(
        transfers, Topology(4), {WireClass.B: 144}
    )
    expected = submitted * 72 * 0.58
    assert abs(net.stats.dynamic_energy() - expected) < 1e-6
