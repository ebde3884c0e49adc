"""The compiled graph, pinned by structure: a sha256 over every detailed
task (id, name, patch, rank, sorted dependencies, dependents and pending
messages) and every ghost message (id, route, source task and patch,
parts in order). How ``TaskGraph.compile`` finds its neighbourhoods and
decides part containment may change; what it emits may not."""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedRMCRT, benchmark_property_init
from repro.grid import LoadBalancer, build_two_level_grid
from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.radiation import BurnsChristonBenchmark
from repro.runtime import Computes, Requires, Task, TaskGraph
from repro.dw import cc
from tests.test_three_level import three_level_grid


def graph_sha256(graph) -> str:
    """sha256 of a compiled graph's structure (no callbacks, no data)."""
    lines = []
    for t in graph.detailed_tasks:
        lines.append(
            f"T {t.dtask_id} {t.task.name} p{t.patch.patch_id} L{t.level_index} "
            f"r{t.rank} deps{sorted(t.internal_deps)} "
            f"dependents{sorted(t.dependents)} msgs{sorted(t.pending_msgs)}"
        )
    for m in graph.messages:
        parts = [
            f"{label.name}:{region.lo}-{region.hi}@L{level_index}"
            for label, region, level_index in m.parts
        ]
        lines.append(
            f"M {m.msg_id} r{m.src_rank}->r{m.dst_rank} T{m.src_dtask_id} "
            f"p{m.src_patch_id} {parts}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rmcrt_graph(resolution, patch, halo, ranks, levels=2, **options):
    bench = BurnsChristonBenchmark(resolution=resolution)
    if levels == 2:
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=patch)
    else:
        grid = three_level_grid(fine=resolution, patch=patch)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=1, halo=halo, **options
    )
    assignment = LoadBalancer(ranks).assign(grid.finest_level.patches)
    return drm.build_graph(assignment=assignment, num_ranks=ranks)


def stencil_graph():
    """``test_taskgraph.py``'s cross-level stencil: ``phi`` computed on
    two levels, a one-ghost smooth on the fine one, three ranks."""
    phi, psi = cc("phi"), cc("psi")
    grid = build_two_level_grid(16, 2, fine_patch_size=8, coarse_patch_size=4)

    def init(value):
        return lambda ctx: ctx.compute(phi, np.full(ctx.patch.box.extent, value))

    tg = TaskGraph(grid)
    tg.add_task(Task("init0", init(0.0), computes=[Computes(phi)]), 0)
    tg.add_task(Task("init1", init(1.0), computes=[Computes(phi)]), 1)
    tg.add_task(
        Task("smooth", lambda ctx: None, requires=[Requires(phi, num_ghost=1)],
             computes=[Computes(psi)]),
        1,
    )
    assign = {p.patch_id: p.patch_id % 3 for p in grid.all_patches()}
    return tg.compile(assignment=assign, num_ranks=3)


SCENES = {
    # pipeline_thin: B&C 24^3, 27 patches of 8^3, halo 2
    "pipeline_thin@1": (lambda: rmcrt_graph(24, 8, 2, 1),
                        "5b1f327a345c5233913f4bc022e08ec6ef5ababa462b5905a7ebf99f822771b3"),
    "pipeline_thin@2": (lambda: rmcrt_graph(24, 8, 2, 2),
                        "0385aaa761b13702afdf29ebf945e3d6e4a1d1808378d803d419a61399f5e430"),
    "pipeline_thin@4": (lambda: rmcrt_graph(24, 8, 2, 4),
                        "904f9d32fe1b9aa6f7b99b79d8bb4754ef312d57b700b34e17303bdbfc30a29e"),
    # halo 4 over 4^3 patches: a ghost box reaches two patches out
    "halo4_16_4@3": (lambda: rmcrt_graph(16, 4, 4, 3),
                     "1830e01bd6945d472d3f03c27d1dda7da1b50497178b882bc83eea16770a3b7f"),
    # the trace tasks compute WALL_FLUX beside DIVQ
    "pipeline_flux@3": (lambda: rmcrt_graph(24, 8, 2, 3, compute_boundary_flux=True),
                        "752e4e19b9584f9e3c9935ec93fceec8863d3169200483a7bb4647093fa17389"),
    # test_three_level.py's scene: two per-level bundles broadcast
    "three_level@2": (lambda: rmcrt_graph(16, 8, 2, 2, levels=3),
                      "dec5e0b1eaccef2504cc45884b67c301b054f9d9aab7943b4ade4f1e66791fc5"),
    "stencil@3": (stencil_graph,
                  "431c4d2f46f680567c1f6aa8f9140ca4b09ba250fd503e994ab5b184d525cd78"),
}


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_compiled_graph_structure_is_pinned(scene):
    build, sha = SCENES[scene]
    assert graph_sha256(build()) == sha


def test_compile_publishes_its_counters():
    """One compile; one neighbourhood per (consumer, ghost width): 27
    trace tasks at halo 2 and the level-wide coarsen, not one per label."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        rmcrt_graph(24, 8, 2, 2)
    finally:
        set_metrics(previous)
    assert registry.value("taskgraph.compiles") == 1
    assert registry.value("taskgraph.neighbourhoods") == 28
