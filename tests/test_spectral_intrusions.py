"""Tests for WSGG band sets as spectral models of the one trace, and
for intrusion-geometry handling."""

import numpy as np
import pytest

from repro.grid import Box, CellType
from repro.core import (
    RMCRTSolver, SingleLevelRMCRT, RayBatch, march,
)
from repro.core.dda import RayStatus
from repro.arches import BoilerScenario
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties
from repro.radiation.spectral import (
    PlanckTable, SpectralModel, TabulatedEmissivity, fraction_inverse,
)
from repro.util.errors import ReproError
from tests.level_fields import whole_level

#: a representative 3-band combustion-gas set, (weights, kappa scales):
#: an optically thick CO2/H2O band, a moderate band, a nearly
#: transparent window
COMBUSTION = ((0.35, 0.40, 0.25), (4.0, 1.0, 0.05))


def wsgg_model(weights, kappa_scales, temperature=1000.0):
    """A weighted-sum-of-grey-gases band set as the model the trace
    samples: band ``b``'s edges sit at the Planck inverses of the
    cumulative weights, so at ``temperature`` it carries ``weights[b]``
    of the black-body power and marches ``kappa_scales[b]`` times the
    gray kappa."""
    inner = fraction_inverse(np.cumsum(weights)[:-1], temperature)
    table = PlanckTable.from_edges([0.0, *inner, np.inf], temperature)
    return SpectralModel(table, kappa_scales, TabulatedEmissivity.gray(len(weights)))


def band_loop(grid, props, model, rays_per_cell, seed):
    """The stratified estimator the model's expectation equals: one gray
    solve a band on interior kappa times the band's scale and emissive
    power (walls too) times its weight, the bands' del.q summed; each
    band on its own seed."""
    divq = 0.0
    interior = props.interior.slices(origin=props.origin)
    for b, (weight, scale) in enumerate(zip(model.table.weights, model.kappa_scales)):
        abskg = props.abskg.copy()
        abskg[interior] *= scale
        band = RadiativeProperties(
            interior=props.interior, abskg=abskg,
            sigma_t4=props.sigma_t4 * weight, cell_type=props.cell_type,
        )
        solver = SingleLevelRMCRT(rays_per_cell=rays_per_cell, seed=seed + 7919 * b)
        divq = divq + solver.solve(grid, band).divq
    return divq


@pytest.fixture(scope="module")
def bench_setup():
    bench = BurnsChristonBenchmark(resolution=10)
    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    return grid, props


class TestSpectralBands:
    def test_band_validation(self):
        """A band set's weights come back from its edges; a negative
        kappa scale is refused."""
        model = wsgg_model(*COMBUSTION)
        np.testing.assert_allclose(model.table.weights, COMBUSTION[0], rtol=1e-14)
        assert model.planck_mean_scale == pytest.approx(1.8125)
        with pytest.raises(ReproError, match="finite and non-negative"):
            wsgg_model((0.5, 0.5), (1.0, -1.0))

    def test_band_properties_scaling(self, bench_setup):
        """Band ``b`` of a level's fields (``LevelFields.bands``):
        interior kappa times the band's scale, wall emissivity and
        emissive power untouched (the Planck draw weights emission), the
        level itself unchanged."""
        _, props = bench_setup
        fields = whole_level(props, (0.1,) * 3)
        before = fields.abskg.copy()
        bands = fields.bands(wsgg_model((0.25, 0.75), (2.0, 1.0)))
        inner = tuple(slice(1, -1) for _ in range(3))
        for b, scale in enumerate((2.0, 1.0)):
            abskg, sigma_t4, _ = bands.views(b)
            np.testing.assert_array_equal(
                abskg[inner], scale * props.interior_view("abskg"))
            np.testing.assert_array_equal(sigma_t4, props.sigma_t4)
            assert abskg[0, 5, 5] == props.abskg[0, 5, 5]
        np.testing.assert_array_equal(fields.abskg, before)

    def test_single_grey_band_matches_grey_solver(self, bench_setup):
        grid, props = bench_setup
        reference = SingleLevelRMCRT(rays_per_cell=8, seed=2).solve(grid, props)
        model = wsgg_model((1.0,), (1.0,))
        result = SingleLevelRMCRT(rays_per_cell=8, seed=2, spectral=model).solve(grid, props)
        np.testing.assert_array_equal(result.divq, reference.divq)

    def test_three_band_physical(self, bench_setup):
        grid, props = bench_setup
        model = wsgg_model(*COMBUSTION)
        result = SingleLevelRMCRT(rays_per_cell=16, seed=3, spectral=model).solve(grid, props)
        assert result.divq.shape == (10, 10, 10)
        assert (result.divq > 0).all()  # hot medium, cold walls, all bands
        assert result.rays_traced == 10 ** 3 * 16  # one band a ray

    def test_band_decomposition_consistency(self, bench_setup):
        """Splitting the grey gas into n identical sub-bands is the
        identity: same kappa, weights sum to 1 => statistically the grey
        answer (different streams, so compare means)."""
        grid, props = bench_setup
        model = wsgg_model((0.25,) * 4, (1.0,) * 4)
        result = SingleLevelRMCRT(rays_per_cell=32, seed=4, spectral=model).solve(grid, props)
        grey = SingleLevelRMCRT(rays_per_cell=32, seed=4).solve(grid, props)
        rel = abs(result.divq.mean() - grey.divq.mean()) / grey.divq.mean()
        assert rel < 0.02

    def test_transparent_band_contributes_little(self, bench_setup):
        """An optically thin band emits ~4*kappa*w per cell; the thick
        band dominates del.q."""
        grid, props = bench_setup
        thin, thick = (
            SingleLevelRMCRT(rays_per_cell=16, seed=5, spectral=wsgg_model((1.0,), (scale,)))
            .solve(grid, props)
            for scale in (0.01, 1.0)
        )
        assert thin.divq.mean() < 0.05 * thick.divq.mean()

    def test_facade_solver_works(self, bench_setup):
        """12 rays a cell: the band loop's 4 a band, in total."""
        grid, props = bench_setup
        solver = RMCRTSolver(rays_per_cell=12, seed=1, spectral=wsgg_model(*COMBUSTION))
        assert (solver.solve(grid, props).divq > 0).all()

    def test_sampled_bands_match_the_band_loop(self, bench_setup):
        """The expectation identity: a ray's band drawn with probability
        w_b and its intensity weighted s_b against the Planck-mean scale
        is the sum over bands of gray solves on kappa*s_b and w_b*sigma
        T^4. Domain means over independent seeds agree within 3 sigma."""
        grid, props = bench_setup
        model = wsgg_model(*COMBUSTION)
        seeds = (211, 223, 227, 229, 233, 239)
        sampled = [
            SingleLevelRMCRT(rays_per_cell=48, seed=s, spectral=model).solve(grid, props).divq.mean()
            for s in seeds
        ]
        looped = [band_loop(grid, props, model, 16, 100_000 + s).mean() for s in seeds]
        sigma = np.hypot(np.std(sampled, ddof=1), np.std(looped, ddof=1)) / np.sqrt(len(seeds))
        assert abs(np.mean(sampled) - np.mean(looped)) < 3.0 * sigma


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
