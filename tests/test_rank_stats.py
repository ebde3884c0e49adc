"""Tests for the distributed scheduler's per-rank ExecTimes — the
executable-runtime counterpart of Figure 1's measured local
communication time."""

import numpy as np
import pytest

from repro.core import DistributedRMCRT, benchmark_property_init
from repro.grid import LoadBalancer
from repro.radiation import BurnsChristonBenchmark
from repro.runtime import DistributedScheduler


@pytest.fixture(scope="module")
def executed():
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=4, halo=2, seed=8
    )
    assignment = LoadBalancer(4).assign(grid.finest_level.patches)
    graph = drm.build_graph(assignment=assignment, num_ranks=4)
    sched = DistributedScheduler(4)
    sched.execute(graph)
    return graph, sched


class TestRankStats:
    def test_all_ranks_reported(self, executed):
        _, sched = executed
        assert set(sched.rank_stats) == {0, 1, 2, 3}

    def test_task_counts_sum_to_graph(self, executed):
        graph, sched = executed
        total = sum(s.tasks_executed for s in sched.rank_stats.values())
        assert total == len(graph.detailed_tasks)

    def test_exec_time_positive(self, executed):
        _, sched = executed
        for s in sched.rank_stats.values():
            assert s.task_exec_time > 0.0
            assert s.local_comm_time >= 0.0

    def test_message_accounting_matches_graph(self, executed):
        graph, sched = executed
        sent = sum(s.messages_sent for s in sched.rank_stats.values())
        assert sent == len(graph.messages)
        nbytes = sum(s.bytes_sent for s in sched.rank_stats.values())
        assert nbytes == graph.total_message_bytes

    def test_local_comm_is_minor_share(self, executed):
        """For a compute-heavy radiation graph, local comm is a small
        fraction of task execution — the regime the paper's fix put
        Uintah back into."""
        _, sched = executed
        exec_total = sum(s.task_exec_time for s in sched.rank_stats.values())
        comm_total = sum(s.local_comm_time for s in sched.rank_stats.values())
        assert comm_total < exec_total

    def test_stats_reset_per_execute(self, executed):
        graph, _ = executed
        sched = DistributedScheduler(4)
        assert sched.rank_stats == {}
        sched.execute(graph)
        first = sum(s.tasks_executed for s in sched.rank_stats.values())
        # re-execution on fresh warehouses resets the counters
        sched.execute(graph)
        second = sum(s.tasks_executed for s in sched.rank_stats.values())
        assert first == second == len(graph.detailed_tasks)


def test_local_comm_time_is_the_rank_threads_cpu(monkeypatch):
    """The message path is charged the rank thread's CPU time, not the
    wall time around it: under a clock whose wall time runs a million
    times faster than any thread's CPU time, every rank's
    ``local_comm_time`` reads CPU-sized while its task time reads
    wall-sized."""
    import itertools
    import threading
    import time
    from types import SimpleNamespace

    from repro.runtime import scheduler

    wall = itertools.count()
    cpu = threading.local()

    def thread_time():
        cpu.t = getattr(cpu, "t", 0.0) + 1e-6
        return cpu.t

    monkeypatch.setattr(scheduler, "time", SimpleNamespace(
        perf_counter=lambda: float(next(wall)), thread_time=thread_time, sleep=time.sleep,
    ))
    bench = BurnsChristonBenchmark(resolution=8)
    grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=4)
    drm = DistributedRMCRT(grid, benchmark_property_init(bench), rays_per_cell=1, halo=1)
    graph = drm.build_graph(assignment=LoadBalancer(2).assign(grid.finest_level.patches),
                            num_ranks=2)
    sched = DistributedScheduler(2)
    sched.execute(graph)
    for stats in sched.rank_stats.values():
        assert stats.messages_sent > 0
        # one tick of a rank's own clock per pool pass or send burst
        assert 0.0 < stats.local_comm_time < 1e-3
        assert stats.task_exec_time >= 1.0  # at least one tick of the wall clock
