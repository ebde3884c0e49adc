"""The pins of the ``pipeline_thin`` scene (27 patches of 8^3 under a
coarse level, halo 2, one ray per cell — what the end-to-end benchmark
runs through two distributed ranks): the answer, byte for byte, through
every execution path; the message structure two ranks compile to; and
one byte count from the compiled graph to the fabric. A change to the
ghost gather, the task graph or the wire moves these or nothing."""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedRMCRT, MultiLevelRMCRT, benchmark_property_init
from repro.core.distributed import DIVQ
from repro.grid import LoadBalancer
from repro.perf import MetricsRegistry
from repro.radiation import BurnsChristonBenchmark
from repro.runtime import DistributedScheduler, MultiGPUScheduler, gather_cc

DIVQ_SHA256 = {
    5: "8fab56da17cec99ea6b74bc76e0341b313114d51d950159ecc9b142df94a2e1b",
    123456: "b7e33aae8ef71489a09514ea0a103f8c5ad23843b0b69838651f56ac1b65057f",
}


@pytest.fixture(scope="module")
def scene():
    bench = BurnsChristonBenchmark(resolution=24)
    return bench, bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)


def pipeline(scene, seed=5):
    bench, grid = scene
    return DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=1, halo=2, seed=seed
    )


@pytest.fixture
def two_rank_graph(scene):
    _, grid = scene
    assignment = LoadBalancer(2).assign(grid.finest_level.patches)
    return pipeline(scene).build_graph(assignment=assignment, num_ranks=2)


@pytest.mark.parametrize("seed", sorted(DIVQ_SHA256))
def test_divq_is_pinned_through_every_execution_path(scene, seed):
    bench, grid = scene
    drm = pipeline(scene, seed)
    graph = drm.build_graph()
    divq = {
        "serial": drm.solve("serial").divq,
        "threaded": drm.solve("threaded").divq,
        "distributed": drm.solve("distributed", num_ranks=2).divq,
        "gpu": drm.solve("gpu").divq,
        "multigpu": gather_cc(
            graph, {0: MultiGPUScheduler(num_gpus=3).execute(graph)}, DIVQ, 1
        ),
        "direct": MultiLevelRMCRT(rays_per_cell=1, halo=2, seed=seed).solve(
            grid, bench.properties_for_level(grid.finest_level)
        ).divq,
    }
    for path, field in divq.items():
        sha = hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest()
        assert sha == DIVQ_SHA256[seed], path


def test_two_ranks_exchange_25_packed_messages(two_rank_graph):
    graph = two_rank_graph
    assert len(graph.detailed_tasks) == 55
    assert len(graph.messages) == 25
    assert sum(len(m.parts) for m in graph.messages) == 90
    assert graph.total_message_bytes == 218_688


@pytest.mark.parametrize("pool_kind", ["waitfree", "locked"])
def test_one_byte_count_from_graph_to_fabric(two_rank_graph, pool_kind):
    graph = two_rank_graph
    registry = MetricsRegistry()
    sched = DistributedScheduler(2, pool_kind=pool_kind, metrics=registry)
    rank_dws = sched.execute(graph)
    stats = sched.rank_stats.values()
    assert (
        registry.value("mpi.bytes")
        == sum(s.bytes_sent for s in stats)
        == graph.total_message_bytes
    )
    assert (
        registry.value("mpi.messages")
        == sum(s.messages_sent for s in stats)
        == len(graph.messages)
        == registry.total("comm.pool.retired")
    )
    # every buffer a pool allocated for a message was freed
    assert len(registry.series("comm.pool.outstanding_buffers")) == 2
    assert registry.total("comm.pool.outstanding_buffers") == 0
    assert registry.total("comm.pool.outstanding_bytes") == 0
    assert sched.fabric.quiescent()
    # and the gather behind it: one walk a launch (each rank's traces
    # and the coarsen, three labels each), every piece pasted once
    dw = [dw.stats for dw in rank_dws.values()]
    assert sum(s.foreign_adds for s in dw) == 90 - 3    # the level parts are put_level
    assert sum(s.region_assemblies for s in dw) == 9
    assert sum(s.pieces_tested for s in dw) == 249
    assert sum(s.pieces_pasted for s in dw) == 249
    assert max(dw.nbytes for dw in rank_dws.values()) == 390_208
