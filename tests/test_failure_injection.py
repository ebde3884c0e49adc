"""Failure injection: randomized message delivery order/latency.

The paper's race conditions "only manifest at larger scale" because
scale randomizes message arrival. The jittered fabric brings that
nondeterminism to laptop runs: messages arrive late and in randomized
cross-channel order, and the schedulers must not care.
"""

import threading
import time

import numpy as np
import pytest

from repro.grid import Box, Grid, decompose_level
from repro.dw import cc
from repro.runtime import (
    Computes,
    DistributedScheduler,
    Requires,
    SerialScheduler,
    SimMPI,
    Task,
    TaskGraph,
    gather_cc,
)
from repro.core import DistributedRMCRT, benchmark_property_init
from repro.radiation import BurnsChristonBenchmark
from repro.util.errors import CommError


class TestJitteredFabric:
    def test_delivery_eventually_happens(self):
        fabric = SimMPI(2, delivery_jitter=2e-3, jitter_seed=1)
        a, b = fabric.comms()
        req = b.irecv(source=0, tag=5)
        a.isend("late", dest=1, tag=5)
        assert req.wait(timeout=5.0) == "late"
        fabric.shutdown()

    def test_per_channel_fifo_preserved(self):
        """Same (src, dst, tag): order preserved even under jitter —
        MPI's non-overtaking guarantee."""
        fabric = SimMPI(2, delivery_jitter=1e-3, jitter_seed=2)
        a, b = fabric.comms()
        for i in range(10):
            a.isend(i, dest=1, tag=7)
        got = [b.recv(source=0, tag=7, timeout=5.0) for _ in range(10)]
        assert got == list(range(10))
        fabric.shutdown()

    def test_cross_channel_order_randomized(self):
        """Different tags may overtake each other — and with a seeded
        shuffle, at least sometimes do."""
        fabric = SimMPI(2, delivery_jitter=5e-4, jitter_seed=3)
        a, b = fabric.comms()
        n = 20
        for i in range(n):
            a.isend(i, dest=1, tag=i)
        arrival = []
        deadline = time.monotonic() + 5.0
        while len(arrival) < n and time.monotonic() < deadline:
            for i in range(n):
                if i not in arrival and b.probe(source=0, tag=i):
                    b.recv(source=0, tag=i)
                    arrival.append(i)
        assert sorted(arrival) == list(range(n))
        assert arrival != list(range(n)), "jitter should reorder channels"
        fabric.shutdown()

    def test_quiescence_accounts_staged(self):
        fabric = SimMPI(2, delivery_jitter=50e-3, jitter_seed=4)
        fabric.comm(0).isend("x", dest=1, tag=0)
        assert not fabric.quiescent()  # still staged or undelivered
        fabric.comm(1).recv(source=0, tag=0, timeout=5.0)
        fabric.shutdown()
        assert fabric.quiescent()

    def test_negative_jitter_rejected(self):
        with pytest.raises(CommError):
            SimMPI(2, delivery_jitter=-1.0)

    def test_shutdown_idempotent(self):
        fabric = SimMPI(2, delivery_jitter=1e-4)
        fabric.shutdown()
        fabric.shutdown()


PHI = cc("phi")
PSI = cc("psi")


def stencil_graph(num_ranks):
    grid = Grid()
    level = grid.add_level(Box.cube(8), (1 / 8,) * 3)
    decompose_level(level, (4, 4, 4))

    def init_cb(ctx):
        b = ctx.patch.box
        i, j, k = np.meshgrid(
            np.arange(b.lo[0], b.hi[0]),
            np.arange(b.lo[1], b.hi[1]),
            np.arange(b.lo[2], b.hi[2]),
            indexing="ij",
        )
        ctx.compute(PHI, (i + 10.0 * j + 100.0 * k).astype(float))

    def smooth_cb(ctx):
        phi = ctx.require(PHI, default=0.0)
        ctx.compute(PSI, phi[1:-1, 1:-1, 1:-1] * 2.0)

    tg = TaskGraph(grid)
    tg.add_task(Task("init", init_cb, computes=[Computes(PHI)]), 0)
    tg.add_task(
        Task("smooth", smooth_cb, requires=[Requires(PHI, num_ghost=1)],
             computes=[Computes(PSI)]),
        0,
    )
    assignment = {p.patch_id: p.patch_id % num_ranks for p in level.patches}
    return grid, tg.compile(assignment=assignment, num_ranks=num_ranks)


class TestSchedulerUnderJitter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stencil_correct_under_jitter(self, seed):
        grid, graph = stencil_graph(4)
        sched = DistributedScheduler(4, delivery_jitter=1e-3, jitter_seed=seed)
        rank_dws = sched.execute(graph)
        psi = gather_cc(graph, rank_dws, PSI, 0)
        grid2, serial_graph = stencil_graph(1)
        dw = SerialScheduler().execute(serial_graph)
        expected = gather_cc(serial_graph, {0: dw}, PSI, 0)
        np.testing.assert_array_equal(psi, expected)

    def test_rmcrt_pipeline_correct_under_jitter(self):
        """The full radiation pipeline survives adversarial delivery of
        its packed messages, at 2 / 3 / 4 ranks through both pools:
        bit-identical divq."""
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench), rays_per_cell=4, halo=2, seed=6
        )
        reference = drm.solve("serial")
        from repro.core.distributed import DIVQ
        from repro.grid import LoadBalancer

        for num_ranks in (2, 3, 4):
            assignment = LoadBalancer(num_ranks).assign(grid.finest_level.patches)
            graph = drm.build_graph(assignment=assignment, num_ranks=num_ranks)
            for pool_kind in ("waitfree", "locked"):
                sched = DistributedScheduler(
                    num_ranks, pool_kind=pool_kind, delivery_jitter=2e-3, jitter_seed=9
                )
                divq = gather_cc(graph, sched.execute(graph), DIVQ, 1)
                np.testing.assert_array_equal(
                    divq, reference.divq, err_msg=f"{num_ranks} ranks, {pool_kind}"
                )
