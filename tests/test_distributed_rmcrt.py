"""End-to-end integration: RMCRT as a task graph on every scheduler.

The strongest invariant in the library: the 3-task distributed RMCRT
pipeline reproduces the direct multi-level solver bit-for-bit, on every
execution engine, for any rank count — decomposition and scheduling are
invisible to the physics.
"""

import numpy as np
import pytest

from repro.dw import GPUDataWarehouse, VarKind
from repro.grid import LoadBalancer
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties, SpectralModel
from repro.core import (
    DIVQ,
    DistributedRMCRT,
    MultiLevelRMCRT,
    benchmark_property_init,
)
from repro.core.distributed import ABSKG, CELL_TYPE, SIGMA_T4
from repro.runtime import DistributedScheduler, gather_cc
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def setup():
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=8, halo=2, seed=3
    )
    reference = drm.solve("serial")
    return bench, grid, drm, reference


#: scenes only the serial direct solvers ran before the trace took them as
#: options: two-level spectral (its gray limit, and 3 tungsten bands on
#: hot gray walls), reflections off walls of emissivity < 1, and
#: cell-centred rays; each is (trace options, wall emissivity, wall T)
ALLOWED = {
    "spectral-gray-limit": (dict(spectral=SpectralModel.gray_limit()), 1.0, 0.0),
    "spectral-tungsten": (
        dict(spectral=SpectralModel.build(
            bands=3, temperature=1200.0, kappa_exponent=0.4, emissivity="tungsten",
        )),
        0.6, 0.7,
    ),
    "reflect": (dict(reflections=True), 0.3, 0.5),
    "cc-rays": (dict(centered_origins=True), 1.0, 0.0),
}
#: every execution path of the pipeline, as ``DistributedRMCRT.solve`` args
PATHS = [
    pytest.param(dict(scheduler=name), id=name) for name in ("serial", "threaded", "gpu")
] + [
    pytest.param(
        dict(scheduler="distributed", num_ranks=ranks, pool_kind=pool),
        id=f"distributed{ranks}-{pool}",
    )
    for ranks in (1, 2, 3) for pool in ("waitfree", "locked")
]


@pytest.fixture(scope="module", params=sorted(ALLOWED))
def allowed(request):
    """A newly allowed scene's pipeline and its serial direct solve."""
    options, emissivity, temperature = ALLOWED[request.param]
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    level = grid.finest_level
    props = RadiativeProperties.from_fields(
        level.domain_box, abskg=bench.abskg_field(level),
        sigma_t4=np.ones(level.domain_box.extent),
        wall_temperature=temperature, wall_emissivity=emissivity,
    )
    common = dict(rays_per_cell=2, halo=2, seed=5, **options)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench), device=True,
        wall_temperature=temperature, wall_emissivity=emissivity, **common,
    )
    return drm, MultiLevelRMCRT(**common).solve(grid, props).divq


class TestEquivalence:
    @pytest.mark.parametrize("path", PATHS)
    def test_newly_allowed_scene_matches_direct_solver(self, allowed, path):
        drm, direct = allowed
        result = drm.solve(**path)
        assert not np.isnan(result.divq).any()
        np.testing.assert_array_equal(result.divq, direct)

    def test_serial_matches_direct_solver(self, setup):
        bench, grid, drm, reference = setup
        grid2 = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        props = bench.properties_for_level(grid2.finest_level)
        direct = MultiLevelRMCRT(rays_per_cell=8, seed=3, halo=2).solve(grid2, props)
        np.testing.assert_array_equal(reference.divq, direct.divq)

    @pytest.mark.parametrize("num_ranks", [1, 2, 4, 8])
    def test_distributed_matches_serial(self, setup, num_ranks):
        _, _, drm, reference = setup
        result = drm.solve("distributed", num_ranks=num_ranks)
        np.testing.assert_array_equal(result.divq, reference.divq)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_threaded_matches_serial(self, setup, threads):
        _, _, drm, reference = setup
        result = drm.solve("threaded", num_threads=threads)
        np.testing.assert_array_equal(result.divq, reference.divq)

    def test_gpu_matches_serial(self, setup):
        _, _, drm, reference = setup
        result = drm.solve("gpu")
        np.testing.assert_array_equal(result.divq, reference.divq)

    def test_locked_pool_matches(self, setup):
        _, _, drm, reference = setup
        result = drm.solve("distributed", num_ranks=4, pool_kind="locked")
        np.testing.assert_array_equal(result.divq, reference.divq)


class TestPhysicsSanity:
    def test_divq_positive(self, setup):
        *_, reference = setup
        assert (reference.divq > 0).all()

    def test_rays_accounted(self, setup):
        _, grid, _, reference = setup
        assert reference.rays_traced == 16 ** 3 * 8


class TestDeviceTasks:
    def test_device_trace_shares_level_db(self):
        """Each coarse level's 3 property arrays hit the GPU once even
        though 8 patch tasks consume them."""
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench),
            rays_per_cell=4, halo=2, seed=1, device=True,
        )
        gpu = GPUDataWarehouse(use_level_db=True)
        result = drm.solve("gpu", gpu=gpu)
        assert gpu.resident_summary()["level_db_entries"] == 3
        assert (result.divq > 0).all()


class TestValidation:
    def test_single_level_grid_rejected(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid(patch_size=4)
        with pytest.raises(ReproError):
            DistributedRMCRT(grid, benchmark_property_init(bench))

    def test_undecomposed_grid_rejected(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.two_level_grid(refinement_ratio=2)
        with pytest.raises(ReproError):
            DistributedRMCRT(grid, benchmark_property_init(bench))

    def test_unknown_scheduler(self, setup):
        _, _, drm, _ = setup
        with pytest.raises(ReproError):
            drm.solve("quantum")

    @pytest.mark.parametrize("rays", [0, -1])
    @pytest.mark.parametrize("path", ["multi_level", "serial", "distributed", "run_ups"])
    def test_a_non_positive_ray_count_fails_typed(self, path, rays):
        """Not a NumPy broadcast or negative-dimension error from deep
        inside the launch: every path names the bad count."""
        from repro.ups import GridSpec, ProblemSpec, RMCRTSpec, SchedulerSpec, run_ups

        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=4)

        def pipeline():
            return DistributedRMCRT(
                grid, benchmark_property_init(bench), rays_per_cell=rays, halo=1
            )

        solve = {
            "multi_level": lambda: MultiLevelRMCRT(rays_per_cell=rays).solve(
                grid, bench.properties_for_level(grid.finest_level)
            ),
            "serial": lambda: pipeline().solve("serial"),
            "distributed": lambda: pipeline().solve("distributed", num_ranks=2),
            "run_ups": lambda: run_ups(ProblemSpec(
                grid=GridSpec(resolution=8, refinement_ratio=2, patch_size=4),
                rmcrt=RMCRTSpec(n_divq_rays=rays, halo=1),
                scheduler=SchedulerSpec(type="distributed", ranks=2),
            )),
        }[path]
        with pytest.raises(ReproError, match="must be >= 1"):
            solve()

    def test_graph_shape(self, setup):
        _, grid, drm, _ = setup
        graph = drm.build_graph()
        names = {t.task.name for t in graph.detailed_tasks}
        assert names == {"rmcrt.initProperties", "rmcrt.coarsen", "rmcrt.trace"}
        # 8 init + 1 coarsen + 8 trace
        assert len(graph.detailed_tasks) == 17

    def test_distributed_message_structure(self, setup):
        _, grid, drm, _ = setup
        from repro.grid import LoadBalancer

        assignment = LoadBalancer(4).assign(grid.finest_level.patches)
        graph = drm.build_graph(assignment=assignment, num_ranks=4)
        # the coarsen task owes every rank except its own one message: the
        # 3 coarse property arrays, whole
        level_msgs = [m for m in graph.messages if m.src_patch_id < 0]
        assert sorted(m.dst_rank for m in level_msgs) == [1, 2, 3]
        coarse = grid.level(0).domain_box
        for m in level_msgs:
            assert [(label.name[-3:], region, lvl) for label, region, lvl in m.parts] == [
                ("_L0", coarse, 0)
            ] * 3
        # and nothing else carries a level variable
        assert sum(
            label.name.endswith("_L0") for m in graph.messages for label, _, _ in m.parts
        ) == 3 * 3


class TestGhostGather:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_every_gather_equals_the_global_field(self, num_ranks):
        """After a run each rank's warehouse holds its own patches plus
        the foreign pieces it was sent; every region a trace or coarsen
        task gathers from it, for every label, must be that window of
        the global field (NaN where the window leaves the domain)."""
        bench = BurnsChristonBenchmark(resolution=24)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench), rays_per_cell=1, halo=2, seed=1
        )
        fine = grid.finest_level
        domain = fine.domain_box
        graph = drm.build_graph(
            assignment=LoadBalancer(num_ranks).assign(fine.patches), num_ranks=num_ranks
        )
        rank_dws = DistributedScheduler(num_ranks).execute(graph)
        fields = {
            label.name: gather_cc(graph, rank_dws, label, fine.index)
            for label in (ABSKG, SIGMA_T4, CELL_TYPE)
        }
        gathers = 0
        for dt in graph.detailed_tasks:
            reqs = [r for r in dt.task.requires if r.label.kind is VarKind.CELL_CENTERED]
            singles = []
            for req in reqs:
                region = dt.patch.box.grow(req.num_ghost)
                inside = region.intersect(domain)
                expected = np.full(region.extent, np.nan)
                expected[inside.slices(origin=region.lo)] = fields[req.label.name][
                    inside.slices(origin=domain.lo)
                ]
                got = rank_dws[dt.rank].get_region(
                    req.label, fine, region, default=np.nan
                )
                np.testing.assert_array_equal(got, expected)
                singles.append(got)
                gathers += 1
            if reqs:
                # the task's own read: its labels in one walk, array for array
                assert len({req.num_ghost for req in reqs}) == 1
                together = rank_dws[dt.rank].get_regions(
                    [req.label for req in reqs], fine, region, [np.nan] * len(reqs)
                )
                for got, single in zip(together, singles):
                    np.testing.assert_array_equal(got, single)
        assert gathers == (27 + 1) * 3      # 27 traces and the coarsen
