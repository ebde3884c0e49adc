"""Cross-patch launch fusion: a rank's ready trace tasks march as one
stacked-window launch.

What must hold: grouping is invisible (every scheduler leaves the
DataWarehouse contents of the serial reference), fusion actually
happens on a thin scene and never exceeds the launch width, the
faithfulness guard fires per window and names the offending patch, and
the runtime's accounting stays per task.
"""

import numpy as np
import pytest

from repro.core import DistributedRMCRT, benchmark_property_init
from repro.core import distributed
from repro.core.distributed import ABSKG, CELL_TYPE, DIVQ, SIGMA_T4, WALL_FLUX
from repro.core.kernels import LAUNCH_RAYS
from repro.grid import LoadBalancer
from repro.perf import MetricsRegistry, SpanTracer, set_metrics
from repro.perf.flightrec import FlightRecorder, set_flight_recorder
from repro.radiation import BurnsChristonBenchmark, SpectralModel
from repro.runtime import (
    Computes,
    DistributedScheduler,
    GPUScheduler,
    MultiGPUScheduler,
    SerialScheduler,
    Task,
    TaskGraph,
    ThreadedScheduler,
    gather_cc,
)
from repro.runtime.scheduler import RankLoop
from repro.util.errors import ReproError
from tests.test_schedulers import PHI, make_grid
from tests.test_three_level import three_level_grid

RAYS_PER_CELL = 2
PATCH_RAYS = 4 ** 3 * RAYS_PER_CELL      # 27 patches of 4^3: all of them fit one launch
#: on the same patches the width binds: five are just over a launch, four fit
BINDING_RAYS_PER_CELL = LAUNCH_RAYS // (5 * 4 ** 3) + 1
BINDING_PATCH_RAYS = 4 ** 3 * BINDING_RAYS_PER_CELL
#: eight patches of 8^3, every one a launch of its own
ALONE = dict(resolution=16, patch=8, rays_per_cell=LAUNCH_RAYS // 8 ** 3)


def thin_pipeline(levels=2, rays_per_cell=RAYS_PER_CELL, resolution=12, patch=4, **kw):
    bench = BurnsChristonBenchmark(resolution=resolution)
    if levels == 2:
        grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=patch)
    else:
        grid = three_level_grid(fine=resolution, patch=patch)
    return DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=rays_per_cell,
        halo=1, seed=11, device=True, **kw,
    )


def contents(drm, graph, rank_dws):
    """Everything the pipeline leaves in the warehouses: each CC label
    gathered over the fine level, each level variable (every rank's copy
    must be the same array)."""
    fine = drm.grid.num_levels - 1
    labels = [ABSKG, SIGMA_T4, CELL_TYPE, DIVQ]
    if drm.compute_boundary_flux:
        labels.append(WALL_FLUX)
    out = {label.name: gather_cc(graph, rank_dws, label, fine) for label in labels}
    for idx, coarse in drm._coarse_labels.items():
        for label in coarse.values():
            copies = [dw.get_level(label, idx) for dw in rank_dws.values()]
            for copy in copies[1:]:
                np.testing.assert_array_equal(copy, copies[0], err_msg=label.name)
            out[label.name] = copies[0]
    return out


def assert_same_contents(got, reference):
    assert sorted(got) == sorted(reference)
    for name, value in got.items():
        np.testing.assert_array_equal(value, reference[name], err_msg=name)


#: eight patches, every one on a wall: each trace task also marches its
#: wall faces' rays in its launch
FLUX = dict(levels=2, resolution=8, compute_boundary_flux=True, flux_rays_per_face=2)

SCENES = {
    "two-level": dict(levels=2),
    "three-level": dict(levels=3),
    "boundary-flux": FLUX,
    "reflecting-flux": dict(FLUX, reflections=True, wall_emissivity=0.5),
    "spectral-flux": dict(FLUX, spectral=SpectralModel.build(
        bands=3, temperature=1000.0, kappa_exponent=1.0)),
}


@pytest.fixture(scope="module", params=sorted(SCENES))
def scene(request):
    drm = thin_pipeline(**SCENES[request.param])
    graph = drm.build_graph()
    reference = contents(drm, graph, {0: SerialScheduler().execute(graph)})
    return drm, graph, reference


class TestGroupingIsInvisible:
    @pytest.mark.parametrize("threads, shuffle, seed", [
        (2, False, 0), (8, False, 0), (4, True, 0), (4, True, 1), (4, True, 2), (3, True, 7),
    ])
    def test_threaded(self, scene, threads, shuffle, seed):
        drm, graph, reference = scene
        dw = ThreadedScheduler(num_threads=threads, shuffle=shuffle, seed=seed).execute(graph)
        assert_same_contents(contents(drm, graph, {0: dw}), reference)

    @pytest.mark.parametrize("num_ranks, pool_kind, jitter", [
        (ranks, pool, jitter)
        for ranks, jitter in [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (8, 0.0),
                              (2, 2e-4), (3, 2e-4), (4, 2e-4)]
        for pool in ("waitfree", "locked")
    ])
    def test_distributed(self, scene, num_ranks, pool_kind, jitter):
        drm, _, reference = scene
        assignment = LoadBalancer(num_ranks).assign(drm.grid.finest_level.patches)
        graph = drm.build_graph(assignment=assignment, num_ranks=num_ranks)
        sched = DistributedScheduler(
            num_ranks, pool_kind=pool_kind, delivery_jitter=jitter, jitter_seed=num_ranks
        )
        assert_same_contents(contents(drm, graph, sched.execute(graph)), reference)

    @pytest.mark.parametrize("make", [
        GPUScheduler, lambda: GPUScheduler(max_in_flight=3), lambda: MultiGPUScheduler(num_gpus=3),
    ])
    def test_device_schedulers(self, scene, make):
        drm, graph, reference = scene
        assert_same_contents(contents(drm, graph, {0: make().execute(graph)}), reference)


def traced(execute):
    """(dda counter registry, task spans) of one execution."""
    registry, tracer = MetricsRegistry(), SpanTracer()
    previous = set_metrics(registry)
    try:
        execute(tracer)
    finally:
        set_metrics(previous)
    spans = [e for e in tracer.events() if e.get("name") == "rmcrt.trace"]
    return registry, spans


class TestFusionHappens:
    def test_serial_launches_fill_the_target_and_no_more(self):
        drm = thin_pipeline(rays_per_cell=BINDING_RAYS_PER_CELL)
        graph = drm.build_graph()
        registry, spans = traced(lambda tracer: SerialScheduler(tracer=tracer).execute(graph))
        launches = [s["args"]["fused"] for s in spans]
        # a fifth patch would overshoot the width: it waits for the next launch
        assert 4 * BINDING_PATCH_RAYS <= LAUNCH_RAYS < 5 * BINDING_PATCH_RAYS
        assert launches == [4] * 6 + [3]
        assert registry.value("dda.calls", handoff="0") == len(launches)
        assert registry.value("dda.lanes_launched", handoff="0") == 27 * BINDING_PATCH_RAYS
        assert sorted(p for s in spans for p in s["args"]["patches"]) == list(range(27))

    def test_one_worker_launches_everything_ready_below_the_width(self):
        graph = thin_pipeline().build_graph()
        registry, spans = traced(lambda tracer: SerialScheduler(tracer=tracer).execute(graph))
        assert [s["args"]["fused"] for s in spans] == [27]
        assert registry.value("dda.calls", handoff="0") == 1

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_distributed_ranks_fuse_within_the_target(self, num_ranks):
        drm = thin_pipeline(rays_per_cell=BINDING_RAYS_PER_CELL)
        assignment = LoadBalancer(num_ranks).assign(drm.grid.finest_level.patches)
        graph = drm.build_graph(assignment=assignment, num_ranks=num_ranks)
        registry, spans = traced(
            lambda tracer: DistributedScheduler(num_ranks, tracer=tracer).execute(graph)
        )
        assert registry.value("dda.calls", handoff="0") == len(spans) < 27
        for span in spans:
            assert span["args"]["fused"] * BINDING_PATCH_RAYS <= LAUNCH_RAYS
            assert {assignment[p] for p in span["args"]["patches"]} == {span["args"]["rank"]}

    def test_a_patch_that_fills_a_launch_runs_alone(self):
        graph = thin_pipeline(**ALONE).build_graph()
        _, spans = traced(lambda tracer: SerialScheduler(tracer=tracer).execute(graph))
        assert [s["args"]["fused"] for s in spans] == [1] * 8

    def test_device_schedulers_launch_one_task_at_a_time(self):
        graph = thin_pipeline().build_graph()
        registry, _ = traced(lambda tracer: GPUScheduler(tracer=tracer).execute(graph))
        assert registry.value("dda.calls", handoff="0") == 27


class TestLaunchShareDeclaration:
    """The runtime side on its own: any task may declare a launch share."""

    @staticmethod
    def fill_graph(share, launches):
        """27 patches, one ``fill`` task each, declaring ``share``; the
        callback appends each launch's patch ids to ``launches``."""
        grid = make_grid(n=12, patch=4)

        def fill_cb(ctxs):
            launches.append([ctx.patch.patch_id for ctx in ctxs])
            for ctx in ctxs:
                ctx.compute(PHI, np.full(ctx.patch.box.extent, float(ctx.patch.patch_id)))

        tg = TaskGraph(grid)
        tg.add_task(
            Task("fill", fill_cb, computes=[Computes(PHI)], launch_share=lambda patch: share), 0
        )
        return grid, tg.compile()

    def test_sixths_fill_a_launch_at_six(self):
        launches = []
        grid, graph = self.fill_graph(1 / 6, launches)
        dw = SerialScheduler().execute(graph)
        assert [len(ids) for ids in launches] == [6, 6, 6, 6, 3]    # six sixths are full
        assert [p for ids in launches for p in ids] == list(range(27))
        for patch in grid.level(0).patches:
            assert (dw.get(PHI, patch.patch_id).view(patch.box) == patch.patch_id).all()

    def test_an_instance_that_would_overshoot_waits(self):
        launches = []
        _, graph = self.fill_graph(0.6, launches)
        SerialScheduler().execute(graph)
        assert [len(ids) for ids in launches] == [1] * 27     # 0.6 + 0.6 is not a launch

    def test_a_worker_takes_its_share_of_the_rank_at_most(self):
        """Everything fits one launch, but with four workers a launch
        takes a quarter of the rank's instances, rounded up, so the
        other workers still find work."""
        _, graph = self.fill_graph(1 / 64, [])
        loop = RankLoop(graph.detailed_tasks, launch=None)
        assert len(loop._ready) == 27
        assert len(loop._launch_of(loop._ready.popleft(), workers=4)) == 7      # ceil(27 / 4)
        assert len(loop._launch_of(loop._ready.popleft(), workers=1)) == 20     # the rest


class TestGuardFiresPerWindow:
    """A trace task whose ROI exceeds the ghost data it declared reads
    cells it was sent nothing for: the NaN poisoning must fire and name
    that patch, wherever it sits in a launch."""

    @pytest.mark.parametrize("scene", [
        pytest.param(ALONE, id="alone"),        # every patch fills a launch
        pytest.param({}, id="mid-launch"),      # every ready patch in one launch
        pytest.param(FLUX, id="flux"),          # wall-face rays in the launch too
    ])
    @pytest.mark.parametrize("scheduler", ["serial", "distributed"])
    def test_wide_roi_names_its_patch(self, monkeypatch, scene, scheduler):
        drm = thin_pipeline(**scene)
        # fused, patch 5 is neither first nor last of its launch: serial
        # launches patches 0-26 together, rank 1 of two starts at patch 2
        offender = drm.grid.finest_level.patches[5]
        real_roi = distributed.patch_roi

        def wide_roi(interior, box, halo):
            return real_roi(interior, box, halo + (box == offender.box))

        monkeypatch.setattr(distributed, "patch_roi", wide_roi)
        with pytest.raises(ReproError, match=rf"patch {offender.patch_id} read cells outside"):
            drm.solve(scheduler, num_ranks=2)

    def test_declared_roi_is_clean(self):
        assert np.isfinite(thin_pipeline().solve("serial").divq).all()


class TestAccountingStaysPerTask:
    def test_counts_records_and_spans(self):
        drm = thin_pipeline()
        assignment = LoadBalancer(2).assign(drm.grid.finest_level.patches)
        graph = drm.build_graph(assignment=assignment, num_ranks=2)
        registry, tracer, recorder = MetricsRegistry(), SpanTracer(), FlightRecorder()
        previous = set_flight_recorder(recorder)
        try:
            sched = DistributedScheduler(2, tracer=tracer, metrics=registry)
            sched.execute(graph)
        finally:
            set_flight_recorder(previous)
        tasks = len(graph.detailed_tasks)
        assert sum(s.tasks_executed for s in sched.rank_stats.values()) == tasks
        assert registry.value("scheduler.tasks_executed", scheduler="distributed") == tasks
        records = [e for e in recorder.entries() if e["kind"] == "task"]
        assert len(records) == tasks
        trace_records = [e for e in records if e["name"] == "rmcrt.trace"]
        assert sorted(e["patch"] for e in trace_records) == list(range(27))

        spans = [e for e in tracer.events() if e.get("name") == "rmcrt.trace"]
        assert len(spans) < 27 and sum(s["args"]["fused"] for s in spans) == 27
        by_patch = {e["patch"]: e for e in trace_records}
        for span in spans:
            fused, patches = span["args"]["fused"], span["args"]["patches"]
            assert span["args"]["patch"] == patches[0] and len(patches) == fused
            # a launch of n is n records of a n-th of its duration, one causal chain
            shares = {by_patch[p]["dur_s"] for p in patches}
            assert len(shares) == 1
            assert shares.pop() == pytest.approx(span["dur"] * 1e-6 / fused, rel=0.05, abs=2e-6)
            assert len({by_patch[p]["trace_id"] for p in patches}) == 1
        for stats in sched.rank_stats.values():
            assert 0.0 < stats.task_time_p50 <= stats.task_time_p99 <= stats.task_exec_time
