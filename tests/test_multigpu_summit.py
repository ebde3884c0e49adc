"""Tests for multi-GPU node execution and the Summit projection."""

import numpy as np
import pytest

from repro.core import DistributedRMCRT, benchmark_property_init
from repro.core.distributed import DIVQ
from repro.dessim import LARGE, StrongScalingStudy
from repro.dw import GPUDataWarehouse
from repro.machine import K20X, SUMMIT, TITAN, V100, summit_simulator
from repro.radiation import BurnsChristonBenchmark
from repro.runtime.multigpu import MultiGPUScheduler
from repro.runtime.scheduler import gather_cc
from repro.util.errors import SchedulerError


def build_pipeline(resolution=16, patch=8, rays=4):
    bench = BurnsChristonBenchmark(resolution=resolution)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=patch)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench),
        rays_per_cell=rays, halo=2, seed=1, device=True,
    )
    return grid, drm


class TestMultiGPU:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 8])
    def test_matches_serial(self, num_gpus):
        grid, drm = build_pipeline()
        reference = drm.solve("serial")
        sched = MultiGPUScheduler(num_gpus=num_gpus)
        graph = drm.build_graph()
        dw = sched.execute(graph)
        divq = gather_cc(graph, {0: dw}, DIVQ, 1)
        np.testing.assert_array_equal(divq, reference.divq)

    def test_work_balanced_across_devices(self):
        grid, drm = build_pipeline()
        sched = MultiGPUScheduler(num_gpus=4)
        sched.execute(drm.build_graph())
        tasks = [s["tasks"] for s in sched.stats_summary()]
        assert sum(tasks) == 8  # 8 trace tasks
        assert max(tasks) - min(tasks) <= 1

    def test_level_db_replicated_per_device(self):
        """Each device holds exactly one copy of each coarse array —
        N devices, N copies, never per-task copies."""
        grid, drm = build_pipeline()
        sched = MultiGPUScheduler(num_gpus=2)
        sched.execute(drm.build_graph())
        for s in sched.stats_summary():
            assert s["level_db_entries"] == 3

    def test_custom_device_list(self):
        gpus = [GPUDataWarehouse(device_id=7), GPUDataWarehouse(device_id=9)]
        sched = MultiGPUScheduler(gpus=gpus)
        assert sched.num_gpus == 2
        assert sched.gpus[0].device_id == 7

    def test_validation(self):
        with pytest.raises(SchedulerError):
            MultiGPUScheduler(num_gpus=0)
        with pytest.raises(SchedulerError):
            MultiGPUScheduler(gpus=[])

    def test_task_spans_and_scheduler_series(self):
        """The shared instrumentation seam: one task span per detailed
        task, each carrying patch and level, and the scheduler.* series
        every engine publishes."""
        from repro.perf.metrics import MetricsRegistry, set_metrics
        from repro.perf.tracer import SpanTracer, set_tracer

        grid, drm = build_pipeline()
        graph = drm.build_graph()
        tracer, registry = SpanTracer(enabled=True), MetricsRegistry()
        old_tracer, old_registry = set_tracer(tracer), set_metrics(registry)
        try:
            MultiGPUScheduler(num_gpus=2).execute(graph)
        finally:
            set_tracer(old_tracer)
            set_metrics(old_registry)
        spans = [e for e in tracer.events() if e.get("cat") in ("task", "gpu.task")]
        assert sorted(e["name"] for e in spans) == sorted(
            t.task.name for t in graph.detailed_tasks
        )
        assert all({"patch", "level"} <= set(e["args"]) for e in spans)
        assert registry.value(
            "scheduler.tasks_executed", scheduler="multigpu"
        ) == len(graph.detailed_tasks)
        assert registry.value("scheduler.taskexec_seconds", scheduler="multigpu") > 0

    def test_more_gpus_than_patches(self):
        grid, drm = build_pipeline()  # 8 patches
        sched = MultiGPUScheduler(num_gpus=16)
        dw = sched.execute(drm.build_graph())
        used = [s for s in sched.stats_summary() if s["tasks"] > 0]
        assert len(used) == 8


class TestSummit:
    def test_spec_values(self):
        assert SUMMIT.gpus_per_node == 6
        assert SUMMIT.num_nodes == 4608
        assert SUMMIT.gpu_memory_bytes == 16 * 1024 ** 3
        assert SUMMIT.full_occupancy_threads == 80 * 2048

    def test_v100_faster_at_saturation(self):
        cells, rays, steps = 64 ** 3, 100, 150.0
        assert V100.kernel_time(cells, rays, steps) < K20X.kernel_time(
            cells, rays, steps
        )

    def test_v100_slower_when_starved(self):
        """The projection's finding: Titan-tuned 16^3 patches starve a
        V100 worse than a K20X."""
        cells, rays, steps = 16 ** 3, 100, 150.0
        assert V100.kernel_time(cells, rays, steps) > K20X.kernel_time(
            cells, rays, steps
        )

    def test_summit_simulator_runs_to_27k_gpus(self):
        sim = summit_simulator()
        b = sim.simulate_timestep(LARGE, 16, 27_648)
        assert b.total_time > 0
        with pytest.raises(Exception):
            sim.simulate_timestep(LARGE, 16, 27_649)

    def test_summit_wins_at_large_patches(self):
        titan = StrongScalingStudy()
        summit = StrongScalingStudy(summit_simulator())
        t = titan.run(LARGE, [64], [512])[64].times[0]
        s = summit.run(LARGE, [64], [512])[64].times[0]
        assert s < t

    def test_summit_loses_at_small_patches(self):
        titan = StrongScalingStudy()
        summit = StrongScalingStudy(summit_simulator())
        t = titan.run(LARGE, [16], [512])[16].times[0]
        s = summit.run(LARGE, [16], [512])[16].times[0]
        assert s > t
