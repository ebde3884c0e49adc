"""Tests for the single-level, multi-level, and façade RMCRT solvers.

Covers decomposition independence, Monte Carlo convergence toward the
deterministic DOM reference, multi-vs-single-level agreement, and the
virtual radiometer.
"""

import numpy as np
import pytest

from repro.grid import Box, build_single_level_grid, build_two_level_grid
from repro.core import (
    MultiLevelRMCRT,
    RMCRTSolver,
    SingleLevelRMCRT,
    VirtualRadiometer,
    project_to_coarser_levels,
)
from repro.radiation import (
    BurnsChristonBenchmark,
    RadiativeProperties,
    dom_reference_divq,
)
from repro.util.errors import ReproError
from tests.level_fields import whole_level


@pytest.fixture(scope="module")
def bench12():
    return BurnsChristonBenchmark(resolution=12)


@pytest.fixture(scope="module")
def reference_divq(bench12):
    grid = bench12.single_level_grid()
    props = bench12.properties_for_level(grid.finest_level)
    return dom_reference_divq(props, grid.finest_level.dx, n_polar=6, n_azimuthal=12)


class TestSingleLevel:
    def test_positive_divq(self, bench12):
        res = SingleLevelRMCRT(rays_per_cell=16, seed=0).solve(
            bench12.single_level_grid(),
            bench12.properties_for_level(bench12.single_level_grid().finest_level),
        )
        assert res.divq.shape == (12, 12, 12)
        assert (res.divq > 0).all()
        lo, hi = bench12.expected_divq_bounds()
        assert res.divq.max() <= hi

    def test_decomposition_independence(self, bench12):
        """Identical divq regardless of patch decomposition.

        This is the reproducibility property the per-patch RNG keying
        buys: a 1-patch and an 8-patch run differ only in which stream
        each cell's rays come from, so we check statistical agreement;
        two same-decomposition runs must agree exactly.
        """
        grid_a = bench12.single_level_grid(patch_size=6)
        props = bench12.properties_for_level(grid_a.finest_level)
        r1 = SingleLevelRMCRT(rays_per_cell=8, seed=5).solve(grid_a, props)
        grid_b = bench12.single_level_grid(patch_size=6)
        r2 = SingleLevelRMCRT(rays_per_cell=8, seed=5).solve(grid_b, props)
        np.testing.assert_array_equal(r1.divq, r2.divq)

    def test_scalar_backend_matches_vectorized(self):
        bench = BurnsChristonBenchmark(resolution=6)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)
        rv = SingleLevelRMCRT(rays_per_cell=4, seed=2, backend="vectorized").solve(grid, props)
        rs = SingleLevelRMCRT(rays_per_cell=4, seed=2, backend="scalar").solve(grid, props)
        np.testing.assert_allclose(rv.divq, rs.divq, atol=1e-12)

    def test_monte_carlo_convergence(self, bench12, reference_divq):
        """L2 error vs the DOM reference decays ~ 1/sqrt(rays) (E4)."""
        errors = []
        ray_counts = [4, 16, 64, 256]
        grid = bench12.single_level_grid()
        props = bench12.properties_for_level(grid.finest_level)
        for n in ray_counts:
            res = SingleLevelRMCRT(rays_per_cell=n, seed=9).solve(grid, props)
            errors.append(
                np.sqrt(np.mean((res.divq - reference_divq) ** 2))
            )
        # fit log error vs log rays; slope should be near -1/2.
        slope = np.polyfit(np.log(ray_counts), np.log(errors), 1)[0]
        assert -0.70 < slope < -0.30, f"MC convergence slope {slope}"

    def test_rays_traced_accounting(self, bench12):
        grid = bench12.single_level_grid(patch_size=6)
        props = bench12.properties_for_level(grid.finest_level)
        res = SingleLevelRMCRT(rays_per_cell=4, seed=0).solve(grid, props)
        assert res.rays_traced == 12 ** 3 * 4

    def test_bad_backend(self):
        with pytest.raises(ReproError):
            SingleLevelRMCRT(backend="cuda")


class TestMultiLevel:
    def test_agrees_with_single_level(self):
        """2-level divq within a few percent of single-level (same rays/cell)."""
        bench = BurnsChristonBenchmark(resolution=16)
        grid2 = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        props = bench.properties_for_level(grid2.finest_level)
        ml = MultiLevelRMCRT(rays_per_cell=64, seed=3, halo=2).solve(grid2, props)

        grid1 = bench.single_level_grid(patch_size=8)
        sl = SingleLevelRMCRT(rays_per_cell=64, seed=3).solve(
            grid1, bench.properties_for_level(grid1.finest_level)
        )
        rel = np.abs(ml.divq.mean() - sl.divq.mean()) / sl.divq.mean()
        assert rel < 0.03
        # cellwise difference is bounded by MC noise + coarsening error
        assert np.abs(ml.divq - sl.divq).max() < 0.25 * sl.divq.max()

    def test_trivial_refinement_equals_single_level_exactly(self):
        """RR=1 with a domain-spanning ROI: the onion IS the fine mesh.

        With refinement ratio 1 the 'coarse' level carries identical
        data, so multi-level must reproduce single-level bit-for-bit.
        """
        bench = BurnsChristonBenchmark(resolution=8)
        grid2 = bench.two_level_grid(refinement_ratio=1)
        props = bench.properties_for_level(grid2.finest_level)
        ml = MultiLevelRMCRT(rays_per_cell=8, seed=4, halo=1).solve(grid2, props)
        grid1 = bench.single_level_grid()
        sl = SingleLevelRMCRT(rays_per_cell=8, seed=4).solve(
            grid1, bench.properties_for_level(grid1.finest_level)
        )
        np.testing.assert_allclose(ml.divq, sl.divq, atol=1e-9)

    def test_larger_halo_reduces_onion_error(self):
        """More fine data around each patch => closer to single-level."""
        bench = BurnsChristonBenchmark(resolution=16)
        grid1 = bench.single_level_grid()
        props1 = bench.properties_for_level(grid1.finest_level)
        sl = SingleLevelRMCRT(rays_per_cell=32, seed=6, centered_origins=True).solve(
            grid1, props1
        )
        errs = []
        for halo in (0, 8):
            grid2 = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
            props2 = bench.properties_for_level(grid2.finest_level)
            ml = MultiLevelRMCRT(
                rays_per_cell=32, seed=6, halo=halo, centered_origins=True
            ).solve(grid2, props2)
            errs.append(np.abs(ml.divq - sl.divq).mean())
        assert errs[1] <= errs[0]

    def test_requires_two_levels(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid()
        with pytest.raises(ReproError):
            MultiLevelRMCRT().solve(grid, bench.properties_for_level(grid.finest_level))

    def test_projection_bundles(self):
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4)
        props = bench.properties_for_level(grid.finest_level)
        bundles = project_to_coarser_levels(grid, props)
        assert len(bundles) == 2
        assert bundles[1] is props
        assert bundles[0].interior == Box.cube(4)
        assert np.isclose(
            bundles[0].interior_view("abskg").mean(),
            props.interior_view("abskg").mean(),
        )

    def test_projection_wrong_props_rejected(self):
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid()
        wrong = BurnsChristonBenchmark(resolution=8)
        wgrid = wrong.single_level_grid()
        with pytest.raises(ReproError):
            project_to_coarser_levels(
                grid, wrong.properties_for_level(wgrid.finest_level)
            )

    def test_negative_halo_rejected(self):
        with pytest.raises(ReproError):
            MultiLevelRMCRT(halo=-1)


class TestFacade:
    def test_dispatch_single(self, bench12):
        grid = bench12.single_level_grid()
        res = RMCRTSolver(rays_per_cell=4).solve(
            grid, bench12.properties_for_level(grid.finest_level)
        )
        assert res.divq.shape == (12, 12, 12)

    def test_dispatch_multi(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.two_level_grid(refinement_ratio=2)
        res = RMCRTSolver(rays_per_cell=4, halo=1).solve(
            grid, bench.properties_for_level(grid.finest_level)
        )
        assert res.divq.shape == (8, 8, 8)

    def test_solve_benchmark_one_call(self):
        res = RMCRTSolver(rays_per_cell=4).solve_benchmark(resolution=8)
        assert res.divq.shape == (8, 8, 8)
        res2 = RMCRTSolver(rays_per_cell=4, halo=1).solve_benchmark(
            resolution=8, levels=2, refinement_ratio=2
        )
        assert res2.divq.shape == (8, 8, 8)

    def test_scalar_multi_level_rejected(self):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.two_level_grid(refinement_ratio=2)
        with pytest.raises(ReproError):
            RMCRTSolver(backend="scalar").solve(
                grid, bench.properties_for_level(grid.finest_level)
            )

    def test_bad_levels_rejected(self):
        with pytest.raises(ReproError):
            RMCRTSolver().solve_benchmark(resolution=8, levels=3)


class TestVirtualRadiometer:
    def make_fields(self, n=8, kappa=1.0):
        box = Box.cube(n)
        props = RadiativeProperties.from_fields(
            box, abskg=np.full(box.extent, kappa), sigma_t4=np.ones(box.extent)
        )
        return whole_level(props, (1.0 / n,) * 3)

    def test_flux_shape(self):
        fields = self.make_fields(8)
        q = VirtualRadiometer(rays_per_face=16, seed=0).incident_flux(fields, 0, 0)
        assert q.shape == (8, 8)
        assert (q >= 0).all()

    def test_symmetry_across_walls(self):
        fields = self.make_fields(6)
        rad = VirtualRadiometer(rays_per_face=400, seed=1)
        fluxes = rad.all_walls(fields)
        means = [f.mean() for f in fluxes.values()]
        assert max(means) - min(means) < 0.05 * np.mean(means)

    def test_thick_medium_approaches_blackbody(self):
        """Optically very thick hot medium: wall flux -> sigma_t4 = 1."""
        fields = self.make_fields(8, kappa=300.0)
        q = VirtualRadiometer(rays_per_face=64, seed=2).incident_flux(fields, 2, 1)
        assert np.allclose(q, 1.0, rtol=5e-2)

    def test_thin_medium_small_flux(self):
        fields = self.make_fields(8, kappa=1e-3)
        q = VirtualRadiometer(rays_per_face=64, seed=3).incident_flux(fields, 1, 0)
        assert q.mean() < 5e-3

    def test_invalid_wall(self):
        fields = self.make_fields(4)
        with pytest.raises(ReproError):
            VirtualRadiometer().incident_flux(fields, 3, 0)

    def test_face_box_selection(self):
        fields = self.make_fields(8)
        sub = Box((0, 2, 2), (1, 6, 6))
        q = VirtualRadiometer(rays_per_face=8, seed=4).incident_flux(
            fields, 0, 0, face_box=sub
        )
        assert q.shape == (4, 4)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5])
    def test_threshold_outside_the_open_unit_interval_is_refused(self, threshold):
        with pytest.raises(ReproError, match=r"threshold must be in \(0, 1\)"):
            VirtualRadiometer(threshold=threshold)

    def test_face_box_empty_rejected(self):
        fields = self.make_fields(8)
        with pytest.raises(ReproError):
            VirtualRadiometer().incident_flux(
                fields, 0, 0, face_box=Box.cube(2, lo=(50, 50, 50))
            )
