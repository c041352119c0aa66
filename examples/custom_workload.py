"""Define a custom workload profile and scale it across cluster counts.

Shows the public workload API: a ``WorkloadProfile`` fully describes a
synthetic program (mix, dependences, branches, memory behaviour), and
any profile can be run on any machine/interconnect combination.

Run:  python examples/custom_workload.py
"""

from repro import ProcessorConfig, model
from repro.core.processor import ClusteredProcessor
from repro.harness import render_table
from repro.workloads import TraceGenerator, WorkloadProfile

INSTRUCTIONS, WARMUP = 4000, 1200

#: A pointer-chasing, branchy "database-like" workload.
DATABASE = WorkloadProfile(
    name="dbwalk",
    load_frac=0.30, store_frac=0.10,
    pointer_frac=0.50, stream_frac=0.15, stack_frac=0.20,
    working_set_kb=4096, pointer_hot_bytes=64 * 1024,
    dep_locality=0.85, hard_branch_frac=0.08,
    block_size_range=(4, 8), narrow_static_frac=0.30,
)

#: A regular, wide-loop "stencil-like" FP workload.
STENCIL = WorkloadProfile(
    name="stencil",
    load_frac=0.30, store_frac=0.14,
    fp_frac=0.55, fpmul_frac=0.22,
    stream_frac=0.80, pointer_frac=0.02, stack_frac=0.10,
    working_set_kb=8192, dep_locality=0.45,
    block_size_range=(10, 16), loop_frac=0.6, mean_loop_trips=80.0,
)


def run(profile: WorkloadProfile, clusters: int, model_name: str) -> float:
    gen = TraceGenerator(profile, seed=42)
    cpu = ClusteredProcessor(
        ProcessorConfig(num_clusters=clusters),
        model(model_name).config,
        gen.stream_forever(),
    )
    cpu.prewarm(gen.data_footprint())
    stats = cpu.run(INSTRUCTIONS, warmup=WARMUP)
    return stats.ipc


def main() -> None:
    rows = []
    for profile in (DATABASE, STENCIL):
        ipc4 = run(profile, 4, "I")
        ipc16 = run(profile, 16, "I")
        ipc4h = run(profile, 4, "VII")
        rows.append([
            profile.name,
            f"{ipc4:.3f}", f"{ipc16:.3f}",
            f"{(ipc16 / ipc4 - 1) * 100:+.0f}%",
            f"{(ipc4h / ipc4 - 1) * 100:+.1f}%",
        ])
    print(render_table(
        ["Workload", "IPC 4cl", "IPC 16cl", "16cl gain", "L-Wire gain"],
        rows,
        title="Custom workloads across machines "
              "(Model I baseline, Model VII for the L-Wire column):",
    ))
    print("\nCluster scaling and L-Wire gains differ sharply between "
          "the two profiles -- the kind of behaviour split the paper's "
          "Section 5 explores across SPEC2k. (The memory-bound pointer "
          "chaser gains cluster-level memory parallelism; the FP "
          "stencil leans on the L-Wire cache pipeline.)")


if __name__ == "__main__":
    main()
