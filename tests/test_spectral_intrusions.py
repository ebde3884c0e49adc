"""Tests for the spectral band loop (the paper's future-work feature)
and intrusion-geometry handling."""

import numpy as np
import pytest

from repro.grid import Box, CellType
from repro.core import (
    RMCRTSolver, SingleLevelRMCRT, RayBatch, march,
)
from repro.core.dda import RayStatus
from repro.arches import BoilerScenario
from repro.radiation import (
    COMBUSTION_3_BAND,
    BurnsChristonBenchmark,
    RadiativeProperties,
    SpectralBand,
    SpectralRMCRT,
    band_properties,
    validate_bands,
)
from repro.util.errors import ReproError
from tests.level_fields import whole_level


@pytest.fixture(scope="module")
def bench_setup():
    bench = BurnsChristonBenchmark(resolution=10)
    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    return grid, props


class TestSpectralBands:
    def test_band_validation(self):
        with pytest.raises(ReproError):
            SpectralBand(weight=1.5, kappa_scale=1.0)
        with pytest.raises(ReproError):
            SpectralBand(weight=0.5, kappa_scale=-1.0)
        with pytest.raises(ReproError):
            validate_bands([])
        with pytest.raises(ReproError):
            validate_bands([SpectralBand(0.5, 1.0), SpectralBand(0.4, 1.0)])
        validate_bands(COMBUSTION_3_BAND)

    def test_band_properties_scaling(self, bench_setup):
        _, props = bench_setup
        band = SpectralBand(weight=0.25, kappa_scale=2.0)
        bp = band_properties(props, band)
        assert np.allclose(
            bp.interior_view("abskg"), 2.0 * props.interior_view("abskg")
        )
        assert np.allclose(bp.interior_view("sigma_t4"), 0.25)
        # wall emissivity stays grey
        assert bp.abskg[0, 5, 5] == props.abskg[0, 5, 5]
        # original untouched
        assert np.allclose(props.interior_view("sigma_t4"), 1.0)

    def test_single_grey_band_matches_grey_solver(self, bench_setup):
        grid, props = bench_setup
        grey = SingleLevelRMCRT(rays_per_cell=8, seed=2)
        reference = grey.solve(grid, props)
        spectral = SpectralRMCRT(SingleLevelRMCRT(rays_per_cell=8, seed=2))
        result = spectral.solve(grid, props)
        np.testing.assert_array_equal(result.divq, reference.divq)

    def test_three_band_physical(self, bench_setup):
        grid, props = bench_setup
        spectral = SpectralRMCRT(
            SingleLevelRMCRT(rays_per_cell=16, seed=3), COMBUSTION_3_BAND
        )
        result = spectral.solve(grid, props)
        assert result.divq.shape == (10, 10, 10)
        assert (result.divq > 0).all()  # hot medium, cold walls, all bands
        assert result.rays_traced == 3 * 10 ** 3 * 16

    def test_band_decomposition_consistency(self, bench_setup):
        """Splitting the grey gas into n identical sub-bands is the
        identity: same kappa, weights sum to 1 => statistically the grey
        answer (different streams, so compare means)."""
        grid, props = bench_setup
        bands = [SpectralBand(weight=0.25, kappa_scale=1.0)] * 4
        spectral = SpectralRMCRT(SingleLevelRMCRT(rays_per_cell=32, seed=4), bands)
        result = spectral.solve(grid, props)
        grey = SingleLevelRMCRT(rays_per_cell=32, seed=4).solve(grid, props)
        rel = abs(result.divq.mean() - grey.divq.mean()) / grey.divq.mean()
        assert rel < 0.02

    def test_transparent_band_contributes_little(self, bench_setup):
        """An optically thin band emits ~4*kappa*w per cell; the thick
        band dominates del.q."""
        grid, props = bench_setup
        thin = SpectralRMCRT(
            SingleLevelRMCRT(rays_per_cell=16, seed=5),
            [SpectralBand(1.0, 0.01)],
        ).solve(grid, props)
        thick = SpectralRMCRT(
            SingleLevelRMCRT(rays_per_cell=16, seed=5),
            [SpectralBand(1.0, 1.0)],
        ).solve(grid, props)
        assert thin.divq.mean() < 0.05 * thick.divq.mean()

    def test_solver_seed_restored(self, bench_setup):
        grid, props = bench_setup
        grey = SingleLevelRMCRT(rays_per_cell=4, seed=42)
        SpectralRMCRT(grey, COMBUSTION_3_BAND).solve(grid, props)
        assert grey.seed == 42

    def test_bad_grey_solver_rejected(self):
        with pytest.raises(ReproError):
            SpectralRMCRT(object())

    def test_facade_solver_works(self, bench_setup):
        grid, props = bench_setup
        spectral = SpectralRMCRT(RMCRTSolver(rays_per_cell=4, seed=1),
                                 COMBUSTION_3_BAND)
        result = spectral.solve(grid, props)
        assert (result.divq > 0).all()


def make_fields_with_block(n=10, kappa=0.5, block=None, block_st4=0.0):
    box = Box.cube(n)
    ct = np.zeros(box.extent, dtype=np.int8)
    st4 = np.ones(box.extent)
    ab = np.full(box.extent, kappa)
    if block is not None:
        sl = block.slices()
        ct[sl] = CellType.INTRUSION
        st4[sl] = block_st4
        ab[sl] = 1.0  # black surface
    props = RadiativeProperties.from_fields(
        box, abskg=ab, sigma_t4=st4, cell_type=ct
    )
    return props, whole_level(props, (1.0 / n,) * 3)


class TestIntrusions:
    def test_ray_terminates_at_intrusion(self):
        block = Box((6, 4, 4), (8, 6, 6))
        _, fields = make_fields_with_block(block=block)
        origin = fields.cell_center(np.array([2, 5, 5]))
        batch = RayBatch.fresh(origin[None, :], np.array([[1.0, 0.0, 0.0]]))
        march(fields=fields, batch=batch, threshold=1e-12)
        assert batch.status[0] == RayStatus.WALL_HIT
        # terminated at the block face, not the far wall: optical depth
        # = kappa * distance to x=0.6
        expected_tau = 0.5 * (0.6 - origin[0])
        assert np.isclose(batch.tau[0], expected_tau, rtol=1e-10)

    def test_intrusion_divq_zeroed(self):
        block = Box((4, 4, 4), (6, 6, 6))
        bench = BurnsChristonBenchmark(resolution=10)
        grid = bench.single_level_grid()
        props, _ = make_fields_with_block(block=block)
        result = SingleLevelRMCRT(rays_per_cell=4, seed=0).solve(grid, props)
        assert np.allclose(result.divq[block.slices()], 0.0)
        outside = result.divq.copy()
        outside[block.slices()] = np.nan
        assert np.nanmin(outside) > 0

    def test_hot_intrusion_heats_neighbors(self):
        """A hot block radiates: neighbouring gas cells show smaller
        net emission (or net absorption) than with a cold block."""
        block = Box((4, 4, 4), (6, 6, 6))
        bench = BurnsChristonBenchmark(resolution=10)
        grid = bench.single_level_grid()
        cold_props, _ = make_fields_with_block(block=block, block_st4=0.0)
        hot_props, _ = make_fields_with_block(block=block, block_st4=5.0)
        solver = SingleLevelRMCRT(rays_per_cell=32, seed=1)
        cold = solver.solve(grid, cold_props)
        hot = solver.solve(grid, hot_props)
        neighbor = (3, 5, 5)
        assert hot.divq[neighbor] < cold.divq[neighbor]

    def test_boiler_tube_bank_geometry(self):
        sc = BoilerScenario(resolution=16, tube_bank=True, num_tubes=2)
        level = sc.grid().finest_level
        props = sc.radiative_properties(level)
        ct = props.interior_view("cell_type")
        assert (ct == CellType.INTRUSION).sum() > 0
        tubes = sc.tube_regions(level)
        assert len(tubes) == 2
        for tube in tubes:
            assert (props.cell_type[tube.slices(origin=props.origin)]
                    == CellType.INTRUSION).all()

    def test_boiler_tubes_solve_end_to_end(self):
        sc = BoilerScenario(resolution=16, tube_bank=True, num_tubes=2)
        grid = sc.grid()
        props = sc.radiative_properties(grid.finest_level)
        result = RMCRTSolver(rays_per_cell=4, seed=2, halo=2).solve(grid, props)
        ct = props.interior_view("cell_type")
        assert np.allclose(result.divq[ct == CellType.INTRUSION], 0.0)
        assert np.isfinite(result.divq).all()

    def test_tubes_shadow_radiation(self):
        """Gas directly behind a tube (seen from the flame) receives
        less flame radiation: del.q there is HIGHER (less absorption
        of incoming intensity) than without tubes."""
        with_t = BoilerScenario(resolution=16, tube_bank=True, num_tubes=1,
                                tube_temperature=300.0)
        without = BoilerScenario(resolution=16, tube_bank=False)
        solver = RMCRTSolver(rays_per_cell=64, seed=3, halo=2)
        grid_a = with_t.grid()
        ra = solver.solve(grid_a, with_t.radiative_properties(grid_a.finest_level))
        grid_b = without.grid()
        rb = solver.solve(grid_b, without.radiative_properties(grid_b.finest_level))
        tube = with_t.tube_regions(grid_a.finest_level)[0]
        # sample just above the tube (shadowed from the flame below)
        shadow = (tube.lo[0] + 1, tube.lo[1] + 1, min(15, tube.hi[2] + 1))
        assert ra.divq[shadow] > rb.divq[shadow]

    def test_tube_validation(self):
        with pytest.raises(ReproError):
            BoilerScenario(tube_bank=True, num_tubes=0)
