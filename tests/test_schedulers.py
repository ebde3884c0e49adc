"""Scheduler integration tests: serial == threaded == distributed ==
gpu, byte for byte; the readiness rule they share; the GPU
scheduler's staging/accounting behaviour; and the execute gauge."""

import time

import numpy as np
import pytest

from repro.grid import Box, Grid, decompose_level
from repro.perf.metrics import MetricsRegistry
from repro.dw import DataWarehouse, GPUDataWarehouse, cc, per_level
from repro.runtime import (
    Computes,
    DistributedScheduler,
    GPUScheduler,
    ReadyTracker,
    Requires,
    SerialScheduler,
    Task,
    TaskGraph,
    ThreadedScheduler,
    gather_cc,
)
from repro.util.errors import SchedulerError

PHI = cc("phi")
PSI = cc("psi")
COARSE = per_level("coarse_phi")


def make_grid(n=8, patch=4):
    grid = Grid()
    level = grid.add_level(Box.cube(n), (1.0 / n,) * 3)
    decompose_level(level, (patch,) * 3)
    return grid


def init_cb(ctx):
    """phi(i,j,k) = i + 10j + 100k over the patch."""
    b = ctx.patch.box
    i, j, k = np.meshgrid(
        np.arange(b.lo[0], b.hi[0]),
        np.arange(b.lo[1], b.hi[1]),
        np.arange(b.lo[2], b.hi[2]),
        indexing="ij",
    )
    ctx.compute(PHI, (i + 10.0 * j + 100.0 * k).astype(float))


def smooth_cb(ctx):
    """psi = 6-point neighbour average of phi (ghost=1, walls -> 0)."""
    phi = ctx.require(PHI, default=0.0)
    core = phi[1:-1, 1:-1, 1:-1]
    psi = (
        phi[:-2, 1:-1, 1:-1] + phi[2:, 1:-1, 1:-1]
        + phi[1:-1, :-2, 1:-1] + phi[1:-1, 2:, 1:-1]
        + phi[1:-1, 1:-1, :-2] + phi[1:-1, 1:-1, 2:]
    ) / 6.0
    ctx.compute(PSI, psi + 0 * core)


def build_stencil_graph(grid, assignment=None, num_ranks=1):
    tg = TaskGraph(grid)
    tg.add_task(Task("init", init_cb, computes=[Computes(PHI)]), 0)
    tg.add_task(
        Task("smooth", smooth_cb, requires=[Requires(PHI, num_ghost=1)],
             computes=[Computes(PSI)]),
        0,
    )
    return tg.compile(assignment=assignment, num_ranks=num_ranks)


def build_broadcast_graph(grid, num_ranks=4):
    """init -> level coarsen -> per-patch consumer, patches dealt
    round-robin to ``num_ranks``: the PER_LEVEL broadcast shape."""

    def coarsen_cb(ctx):
        phi = ctx.require(PHI)  # whole level (pseudo patch)
        ctx.compute_level(COARSE, phi.reshape(4, 2, 4, 2, 4, 2).mean(axis=(1, 3, 5)))

    def consume_cb(ctx):
        coarse = ctx.require_level(COARSE)
        ctx.compute(PSI, np.full(ctx.patch.box.extent, float(coarse.sum())))

    tg = TaskGraph(grid)
    tg.add_task(Task("init", init_cb, computes=[Computes(PHI)]), 0)
    tg.add_level_task(
        Task("coarsen", coarsen_cb, requires=[Requires(PHI)],
             computes=[Computes(COARSE, level_index=0)]),
        0,
    )
    tg.add_task(
        Task("consume", consume_cb,
             requires=[Requires(COARSE, level_index=0)],
             computes=[Computes(PSI)]),
        0,
    )
    assign = {p.patch_id: p.patch_id % num_ranks for p in grid.level(0).patches}
    return tg.compile(assignment=assign, num_ranks=num_ranks)


def reference_psi(n):
    i, j, k = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    phi = (i + 10.0 * j + 100.0 * k).astype(float)
    padded = np.zeros((n + 2, n + 2, n + 2))
    padded[1:-1, 1:-1, 1:-1] = phi
    return (
        padded[:-2, 1:-1, 1:-1] + padded[2:, 1:-1, 1:-1]
        + padded[1:-1, :-2, 1:-1] + padded[1:-1, 2:, 1:-1]
        + padded[1:-1, 1:-1, :-2] + padded[1:-1, 1:-1, 2:]
    ) / 6.0


def collect_psi(grid, dw):
    level = grid.level(0)
    out = np.zeros(level.domain_box.extent)
    for p in level.patches:
        out[p.box.slices()] = dw.get(PSI, p.patch_id).view(p.box)
    return out


def serial_psi(grid):
    """The serial scheduler's psi — every other engine must equal it
    byte for byte."""
    return collect_psi(grid, SerialScheduler().execute(build_stencil_graph(grid)))


def build_two_rank_stencil():
    grid = make_grid()
    assign = {p.patch_id: p.patch_id % 2 for p in grid.level(0).patches}
    return build_stencil_graph(grid, assignment=assign, num_ranks=2)


def build_rmcrt_graph():
    """The 3-task RMCRT pipeline (initProperties / coarsen / trace)."""
    from repro.core import DistributedRMCRT, benchmark_property_init
    from repro.radiation import BurnsChristonBenchmark

    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    return DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=2, halo=2, seed=1
    ).build_graph()


class TestReadyTracker:
    """The one readiness rule behind ``topological_order``, every
    scheduler and the trace simulator."""

    # id sequences of CompiledGraph.topological_order(), recorded before
    # the five scheduler loops became one
    PINNED = {
        "stencil": (lambda: build_stencil_graph(make_grid()), list(range(16))),
        "stencil-2-ranks": (
            build_two_rank_stencil,
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 9, 11, 13, 15],
        ),
        "level-broadcast": (
            lambda: build_broadcast_graph(make_grid()),
            [0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 16, 8, 9, 13],
        ),
        "rmcrt-3-task": (build_rmcrt_graph, list(range(17))),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_drain_order_is_the_pinned_kahn_order(self, name):
        build, pinned = self.PINNED[name]
        graph = build()
        assert [t.dtask_id for t in graph.topological_order()] == pinned

        tracker = ReadyTracker(graph.detailed_tasks)
        ready = tracker.start()
        for msg in graph.messages:
            ready += tracker.message_arrived(msg.msg_id)
        ready.sort()
        order = []
        while ready:
            assert tracker.remaining == len(pinned) - len(order) > 0
            order.append(ready.pop(0))
            ready += tracker.task_done(order[-1])
        assert order == pinned  # every task released exactly once
        assert tracker.remaining == 0

    def test_broadcast_message_releases_all_its_waiters_once(self):
        graph = build_broadcast_graph(make_grid())
        tracker = ReadyTracker(graph.detailed_tasks)
        tracker.start()
        shared = [m.msg_id for m in graph.messages
                  if len(tracker.waiters(m.msg_id)) > 1]
        assert shared  # two consumers per remote rank, one message each
        for msg_id in shared:
            waiters = tracker.waiters(msg_id)
            assert all(not graph.detailed_tasks[w].internal_deps for w in waiters)
            assert tracker.message_arrived(msg_id) == waiters

        # a ghost message is the same record: what one init owes the other
        # rank, waited on by that rank's four smooth tasks, which all go
        # at once when the last of the rank's four messages is in
        graph = build_two_rank_stencil()
        tracker = ReadyTracker(graph.detailed_tasks)
        for tid in tracker.start():
            assert tracker.task_done(tid) == []
        released = []
        for msg in graph.messages:
            waiters = tracker.waiters(msg.msg_id)
            assert len(waiters) == 4
            assert {graph.detailed_tasks[w].rank for w in waiters} == {msg.dst_rank}
            released.append(tracker.message_arrived(msg.msg_id))
        assert released == [[], [], [], [8, 10, 12, 14], [], [], [], [9, 11, 13, 15]]

    def test_pending_message_holds_a_task_whose_deps_are_done(self):
        graph = build_two_rank_stencil()
        tracker = ReadyTracker(graph.detailed_tasks)
        inits = tracker.start()
        assert [graph.detailed_tasks[t].task.name for t in inits] == ["init"] * 8
        released = [t for tid in inits for t in tracker.task_done(tid)]
        assert released == []  # every smooth task still waits on a ghost message
        for msg in graph.messages:
            released += tracker.message_arrived(msg.msg_id)
        assert sorted(released) == list(range(8, 16))


class TestSerial:
    def test_stencil_correct(self):
        grid = make_grid()
        dw = SerialScheduler().execute(build_stencil_graph(grid))
        np.testing.assert_allclose(collect_psi(grid, dw), reference_psi(8))

    def test_rejects_multirank_graph(self):
        grid = make_grid()
        assign = {p.patch_id: p.patch_id % 2 for p in grid.level(0).patches}
        graph = build_stencil_graph(grid, assignment=assign, num_ranks=2)
        with pytest.raises(SchedulerError):
            SerialScheduler().execute(graph)

    def test_callback_exception_propagates(self):
        grid = make_grid()
        tg = TaskGraph(grid)

        def boom(ctx):
            raise ValueError("kaboom")

        tg.add_task(Task("boom", boom, computes=[Computes(PHI)]), 0)
        with pytest.raises(ValueError):
            SerialScheduler().execute(tg.compile())


class TestThreaded:
    @pytest.mark.parametrize("threads", [1, 4, 8])
    def test_matches_serial(self, threads):
        grid = make_grid()
        dw = ThreadedScheduler(num_threads=threads).execute(build_stencil_graph(grid))
        assert np.array_equal(collect_psi(grid, dw), serial_psi(grid))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_order_same_result(self, seed):
        """Out-of-order execution (Uintah's dynamic scheduling) cannot
        change the answer — dependencies fully order the data flow."""
        grid = make_grid(n=12, patch=4)
        dw = ThreadedScheduler(num_threads=6, shuffle=True, seed=seed).execute(
            build_stencil_graph(grid)
        )
        assert np.array_equal(collect_psi(grid, dw), serial_psi(grid))

    def test_stress_more_workers_than_cores(self):
        """Eight workers, shuffled picks and a 1 us switch interval on
        the shared ready queue: every task still runs exactly once and
        psi is the serial psi."""
        import sys
        import threading

        from repro.perf.tracer import SpanTracer

        grid = make_grid(n=12, patch=4)
        expected = serial_psi(grid)
        graph = build_stencil_graph(grid)
        tracer = SpanTracer(enabled=True)
        sched = ThreadedScheduler(num_threads=8, shuffle=True, seed=3, tracer=tracer)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                runner = threading.Thread(
                    target=lambda: out.append(sched.execute(graph)), daemon=True
                )
                runner.start()
                runner.join(timeout=60.0)
                assert not runner.is_alive(), "threaded execute hung"
        finally:
            sys.setswitchinterval(interval)
        assert len(out) == 5
        assert all(np.array_equal(collect_psi(grid, dw), expected) for dw in out)
        ran = sorted(
            (e["name"], e["args"]["patch"])
            for e in tracer.events() if e.get("cat") == "task"
        )
        assert ran == sorted(
            [(t.task.name, t.patch.patch_id) for t in graph.detailed_tasks] * 5
        )

    def test_worker_exception_propagates(self):
        grid = make_grid()
        tg = TaskGraph(grid)

        def boom(ctx):
            raise RuntimeError("thread kaboom")

        tg.add_task(Task("boom", boom, computes=[Computes(PHI)]), 0)
        with pytest.raises(RuntimeError):
            ThreadedScheduler(num_threads=4).execute(tg.compile())

    def test_bad_thread_count(self):
        with pytest.raises(SchedulerError):
            ThreadedScheduler(num_threads=0)


class TestDistributed:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize(
        "pool_kind,jitter",
        [("waitfree", 0.0), ("locked", 0.0), ("legacy-racy", 0.0), ("waitfree", 1e-3)],
    )
    def test_matches_serial(self, num_ranks, pool_kind, jitter):
        grid = make_grid()
        assign = {p.patch_id: p.patch_id % num_ranks for p in grid.level(0).patches}
        graph = build_stencil_graph(grid, assignment=assign, num_ranks=num_ranks)
        sched = DistributedScheduler(
            num_ranks, pool_kind=pool_kind, delivery_jitter=jitter
        )
        rank_dws = sched.execute(graph)
        psi = gather_cc(graph, rank_dws, PSI, 0)
        assert np.array_equal(psi, serial_psi(grid))

    def test_level_broadcast_workflow(self):
        """init -> level coarsen -> per-patch consumer across 4 ranks:
        the PER_LEVEL broadcast path end to end."""
        grid = make_grid(n=8, patch=4)
        graph = build_broadcast_graph(grid)
        rank_dws = DistributedScheduler(4).execute(graph)
        psi = gather_cc(graph, rank_dws, PSI, 0)
        # every patch sees the same coarse sum
        i, j, k = np.meshgrid(*[np.arange(8)] * 3, indexing="ij")
        expected = (i + 10.0 * j + 100.0 * k).reshape(4, 2, 4, 2, 4, 2).mean(
            axis=(1, 3, 5)
        ).sum()
        np.testing.assert_allclose(psi, expected)

    def test_fabric_quiescent_after_run(self):
        grid = make_grid()
        assign = {p.patch_id: p.patch_id % 2 for p in grid.level(0).patches}
        graph = build_stencil_graph(grid, assignment=assign, num_ranks=2)
        sched = DistributedScheduler(2)
        sched.execute(graph)
        assert sched.fabric.quiescent()

    def test_rank_mismatch_rejected(self):
        grid = make_grid()
        graph = build_stencil_graph(grid)
        with pytest.raises(SchedulerError):
            DistributedScheduler(4).execute(graph)


class TestExecuteGauge:
    """``scheduler.taskexec_seconds`` is the last execute's wall time on
    a scheduler reused across executes, not the sum of all of them."""

    @pytest.mark.parametrize("kind", ["serial", "distributed"])
    def test_reused_scheduler_publishes_last_execute(self, kind):
        grid = make_grid()
        delay = [0.005]

        def slow_init(ctx):
            time.sleep(delay[0])
            init_cb(ctx)

        tg = TaskGraph(grid)
        tg.add_task(Task("init", slow_init, computes=[Computes(PHI)]), 0)
        metrics = MetricsRegistry()
        if kind == "serial":
            graph = tg.compile()
            sched = SerialScheduler(metrics=metrics)
        else:
            assign = {p.patch_id: p.patch_id % 2 for p in grid.level(0).patches}
            graph = tg.compile(assignment=assign, num_ranks=2)
            sched = DistributedScheduler(2, metrics=metrics)
        sched.execute(graph)
        first = metrics.value("scheduler.taskexec_seconds", scheduler=kind)
        assert first >= 4 * delay[0]
        delay[0] = 0.0
        t0 = time.perf_counter()
        sched.execute(graph)
        second_wall = time.perf_counter() - t0
        gauge = metrics.value("scheduler.taskexec_seconds", scheduler=kind)
        assert 0.0 < gauge <= second_wall


class TestGPUScheduler:
    def build_gpu_graph(self, grid, device=True, device_init=False):
        """init -> gpu_smooth with a level variable beside it. With
        ``device_init`` the producers are device tasks too, and the host
        ``coarsen`` task goes first so that nothing separates them from
        their consumers in dependency order."""
        tg = TaskGraph(grid)

        def coarsen_cb(ctx):
            ctx.compute_level(COARSE, np.ones((2, 2, 2)))

        coarsen = Task("coarsen", coarsen_cb, computes=[Computes(COARSE, level_index=0)])
        if device_init:
            tg.add_level_task(coarsen, 0)
        tg.add_task(
            Task("init", init_cb, computes=[Computes(PHI)], device=device_init), 0
        )
        if not device_init:
            tg.add_level_task(coarsen, 0)

        def gpu_smooth(ctx):
            phi = ctx.device_require(PHI) if device else ctx.require(PHI, default=0.0)
            coarse = ctx.device_require_level(COARSE) if device else ctx.require_level(COARSE)
            core = phi[1:-1, 1:-1, 1:-1]
            psi = (
                phi[:-2, 1:-1, 1:-1] + phi[2:, 1:-1, 1:-1]
                + phi[1:-1, :-2, 1:-1] + phi[1:-1, 2:, 1:-1]
                + phi[1:-1, 1:-1, :-2] + phi[1:-1, 1:-1, 2:]
            ) / 6.0 + 0 * core * float(coarse[0, 0, 0] - 1.0)
            ctx.compute(PSI, psi)

        tg.add_task(
            Task(
                "gpu_smooth",
                gpu_smooth,
                requires=[
                    Requires(PHI, num_ghost=1),
                    Requires(COARSE, level_index=0),
                ],
                computes=[Computes(PSI)],
                device=device,
            ),
            0,
        )
        return tg.compile()

    def test_device_result_matches_reference(self):
        grid = make_grid()
        sched = GPUScheduler()
        dw = sched.execute(self.build_gpu_graph(grid))
        assert np.array_equal(collect_psi(grid, dw), serial_psi(grid))

    @pytest.mark.parametrize("max_in_flight", [3, 8, 32])
    def test_device_producer_runs_before_its_consumer_is_staged(self, max_in_flight):
        """A device task reading another device task's output with
        ghosts: H2D staging follows readiness, not look-ahead, so the
        consumer's ghost region is never uploaded before its producers
        ran (which read back as silent zeros)."""
        grid = make_grid()
        sched = GPUScheduler(max_in_flight=max_in_flight)
        dw = sched.execute(self.build_gpu_graph(grid, device_init=True))
        assert np.array_equal(collect_psi(grid, dw), reference_psi(8))
        assert sched.stats.peak_resident_tasks <= max_in_flight

    def test_level_db_uploaded_once(self):
        grid = make_grid(n=8, patch=2)  # 64 device tasks share the level var
        gpu = GPUDataWarehouse(use_level_db=True)
        sched = GPUScheduler(gpu=gpu)
        sched.execute(self.build_gpu_graph(grid))
        assert sched.stats.level_uploads == 1
        assert gpu.resident_summary()["level_db_entries"] == 1

    def test_legacy_mode_uploads_per_task(self):
        grid = make_grid(n=8, patch=2)
        gpu = GPUDataWarehouse(use_level_db=False)
        sched = GPUScheduler(gpu=gpu, max_in_flight=4)
        sched.execute(self.build_gpu_graph(grid))
        # 64 tasks x one level copy each
        level_bytes = 8 * 2 ** 3
        assert gpu.stats.h2d_bytes >= 64 * level_bytes

    def test_d2h_accounting(self):
        grid = make_grid()
        sched = GPUScheduler()
        dw = sched.execute(self.build_gpu_graph(grid))
        psi_bytes = sum(dw.get(PSI, p.patch_id).nbytes for p in grid.level(0).patches)
        assert sched.stats.d2h_bytes == psi_bytes

    def test_in_flight_bounded(self):
        grid = make_grid(n=8, patch=2)
        sched = GPUScheduler(max_in_flight=3)
        sched.execute(self.build_gpu_graph(grid))
        assert sched.stats.peak_resident_tasks <= 3

    def test_streams_round_robin(self):
        grid = make_grid(n=8, patch=4)
        sched = GPUScheduler(num_streams=2)
        sched.execute(self.build_gpu_graph(grid))
        assert set(sched.stats.per_stream_tasks) == {0, 1}

    def test_oom_without_backpressure_raises(self):
        grid = make_grid(n=8, patch=8)  # one big patch
        tiny = GPUDataWarehouse(capacity_bytes=128)
        sched = GPUScheduler(gpu=tiny)
        from repro.util.errors import DataWarehouseError

        with pytest.raises(DataWarehouseError):
            sched.execute(self.build_gpu_graph(grid))

    def test_host_tasks_run_inline(self):
        grid = make_grid()
        sched = GPUScheduler()
        dw = sched.execute(self.build_gpu_graph(grid, device=False))
        assert np.array_equal(collect_psi(grid, dw), serial_psi(grid))
