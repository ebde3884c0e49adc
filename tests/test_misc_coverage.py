"""Edge-path tests across modules: results accounting, series errors,
scheduler guards, field validation, and workload result helpers."""

import numpy as np
import pytest

from repro.grid import Box
from repro.comm.driver import WorkloadResult
from repro.core import LevelFields, RMCRTResult, SingleLevelRMCRT
from repro.dessim import (
    LARGE,
    MEDIUM,
    ClusterSimulator,
    RMCRTProblem,
    ScalingSeries,
    SimOptions,
)
from repro.dw import DataWarehouse, cc
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties
from repro.runtime import SerialScheduler, gather_cc
from repro.util.errors import GridError, ReproError, SchedulerError


class TestRMCRTResult:
    def test_total_emission(self):
        res = RMCRTResult(divq=np.full((2, 2, 2), 3.0), rays_traced=8, solve_time_s=0.0)
        assert res.total_emission == 24.0


class TestScalingSeries:
    def test_efficiency_missing_point(self):
        s = ScalingSeries(patch_size=16, gpu_counts=[64, 128], times=[2.0, 1.0])
        assert s.efficiency(64, 128) == 1.0
        with pytest.raises(ReproError):
            s.efficiency(64, 999)

    def test_efficiency_sublinear(self):
        s = ScalingSeries(patch_size=16, gpu_counts=[64, 128], times=[2.0, 1.5])
        assert s.efficiency(64, 128) == pytest.approx(2.0 / 3.0)


class TestProblemConstants:
    def test_module_level_problem_dicts(self):
        from repro.radiation import LARGE_PROBLEM, MEDIUM_PROBLEM

        assert MEDIUM_PROBLEM["fine_cells"] == 256
        assert LARGE_PROBLEM["fine_cells"] == 512
        assert MEDIUM.rays_per_cell == LARGE.rays_per_cell == 100

    def test_problem_bad_ratio(self):
        with pytest.raises(ReproError):
            RMCRTProblem(fine_cells=100, refinement_ratio=3)

    def test_patch_roi_bytes(self):
        p = RMCRTProblem(fine_cells=128, halo=4)
        assert p.patch_roi_bytes(16) == 24 ** 3 * 3 * 8
        assert p.patch_divq_bytes(16) == 16 ** 3 * 8


class TestRadiativePropertiesValidation:
    def test_shape_check(self):
        """The only way arrays from outside reach ``LevelFields.from_properties``."""
        box = Box.cube(4)
        with pytest.raises(GridError):
            RadiativeProperties(
                box,
                abskg=np.zeros((4, 4, 4)),  # missing ring
                sigma_t4=np.zeros((6, 6, 6)),
                cell_type=np.zeros((6, 6, 6), dtype=np.int8),
            )


class TestLevelFieldsValidation:
    def test_from_properties_level_mismatch(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid()
        other = BurnsChristonBenchmark(resolution=16)
        other_grid = other.single_level_grid()
        props = other.properties_for_level(other_grid.finest_level)
        with pytest.raises(GridError):
            LevelFields.from_properties(grid.finest_level, props)

    def test_position_to_cell_nudge(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)
        fields = LevelFields.from_properties(grid.finest_level, props)
        # a point exactly on a face lands downstream with the nudge; one
        # axis a row, the DDA set-up's layout
        pos = np.array([[0.5], [0.3], [0.3]])
        plus = fields.position_to_cell(pos, nudge_dir=np.array([[1.0], [0], [0]]))
        minus = fields.position_to_cell(pos, nudge_dir=np.array([[-1.0], [0], [0]]))
        assert plus[0, 0] == 4 and minus[0, 0] == 3
        np.testing.assert_array_equal(fields.position_to_cell(pos)[:, 0], [4, 2, 2])


class TestWorkloadResult:
    def test_throughput_and_clean(self):
        r = WorkloadResult(
            wall_time=2.0, processed=100, expected=100,
            leaked_buffers=0, leaked_bytes=0, races_observed=0, num_threads=4,
        )
        assert r.throughput == 50.0
        assert r.clean
        dirty = WorkloadResult(
            wall_time=2.0, processed=100, expected=100,
            leaked_buffers=3, leaked_bytes=300, races_observed=3, num_threads=4,
        )
        assert not dirty.clean

    def test_zero_wall_time(self):
        r = WorkloadResult(
            wall_time=0.0, processed=10, expected=10,
            leaked_buffers=0, leaked_bytes=0, races_observed=0, num_threads=1,
        )
        assert r.throughput == float("inf")


class TestGatherErrors:
    def test_gather_detects_holes(self):
        from repro.runtime import Computes, Task, TaskGraph
        from repro.grid import Grid, decompose_level

        grid = Grid()
        level = grid.add_level(Box.cube(8), (1 / 8,) * 3)
        decompose_level(level, (4, 4, 4))
        tg = TaskGraph(grid)
        tg.add_task(Task("noop", lambda ctx: None, computes=[Computes(cc("phi"))]), 0)
        graph = tg.compile()
        # nothing was actually computed: the DW is empty
        with pytest.raises(Exception):
            gather_cc(graph, {0: DataWarehouse()}, cc("phi"), 0)


class TestSimulatorMemoryFlag:
    def test_single_level_would_not_fit(self):
        """The direct statement of 'intractable': a single-level LARGE
        replica plus baseline state exceeds the K20X."""
        sim = ClusterSimulator()
        opts = SimOptions()
        replica = LARGE.fine_level_bytes
        assert replica + opts.base_device_bytes > sim.spec.gpu_memory_bytes

    def test_breakdown_str(self):
        sim = ClusterSimulator()
        b = sim.simulate_timestep(MEDIUM, 32, 64)
        s = str(b)
        assert "GPUs" in s and "total" in s


class TestScalarBackendGuards:
    def test_whole_domain_patch_fallback(self):
        """An undecomposed level is treated as one patch."""
        bench = BurnsChristonBenchmark(resolution=6)
        grid = bench.single_level_grid()  # no patches
        props = bench.properties_for_level(grid.finest_level)
        res = SingleLevelRMCRT(rays_per_cell=2, seed=0).solve(grid, props)
        assert res.divq.shape == (6, 6, 6)
