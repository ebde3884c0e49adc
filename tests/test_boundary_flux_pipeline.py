"""Tests for the boundary-flux (radiometer) task in the distributed
RMCRT pipeline — the boiler wall heat flux, computed multi-level."""

import numpy as np
import pytest

from repro.grid import Box
from repro.core import (
    DistributedRMCRT,
    LevelFields,
    VirtualRadiometer,
    benchmark_property_init,
)
from repro.core.boundary_flux import incident_flux_multilevel
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def pipeline():
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench),
        rays_per_cell=4, halo=2, seed=11,
        compute_boundary_flux=True, flux_rays_per_face=32,
    )
    return bench, grid, drm, drm.solve("serial")


class TestPipelineBoundaryFlux:
    def test_flux_only_in_wall_adjacent_cells(self, pipeline):
        _, _, _, result = pipeline
        wf = result.wall_flux
        assert wf is not None and wf.shape == (16, 16, 16)
        interior_core = wf[1:-1, 1:-1, 1:-1]
        assert np.allclose(interior_core, 0.0)
        faces = [wf[0], wf[-1], wf[:, 0], wf[:, -1], wf[:, :, 0], wf[:, :, -1]]
        for f in faces:
            assert (f > 0).all()

    def test_flux_physical_bounds(self, pipeline):
        """Hot unit-emissive medium, cold black walls: incident flux in
        (0, sigma_t4 = 1); corners collect up to 3 walls' worth."""
        _, _, _, result = pipeline
        wf = result.wall_flux
        face_center = wf[0, 8, 8]
        assert 0.0 < face_center < 1.0
        # corners see three walls: sum of three face fluxes
        assert wf[0, 0, 0] > face_center

    def test_distributed_matches_serial(self, pipeline):
        _, _, drm, serial = pipeline
        dist = drm.solve("distributed", num_ranks=4)
        np.testing.assert_array_equal(dist.wall_flux, serial.wall_flux)
        np.testing.assert_array_equal(dist.divq, serial.divq)

    def test_threaded_matches_serial(self, pipeline):
        _, _, drm, serial = pipeline
        thr = drm.solve("threaded", num_threads=4)
        np.testing.assert_array_equal(thr.wall_flux, serial.wall_flux)

    def test_graph_gains_flux_tasks(self, pipeline):
        _, grid, drm, _ = pipeline
        graph = drm.build_graph()
        names = [t.task.name for t in graph.detailed_tasks]
        assert names.count("rmcrt.boundaryFlux") == 8  # every patch touches walls

    def test_disabled_by_default(self):
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench), rays_per_cell=2, halo=2
        )
        result = drm.solve("serial")
        assert result.wall_flux is None

    @pytest.mark.parametrize("option", ["reflections", "spectral"])
    def test_an_option_the_flux_would_ignore_is_refused(self, option):
        """The radiometer rays are gray and see black walls: with
        reflections or a spectral model the divq would follow the
        option and the wall flux silently not."""
        from repro.radiation import SpectralModel

        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        value = {"reflections": True, "spectral": SpectralModel.gray_limit()}[option]
        with pytest.raises(ReproError, match="wall flux"):
            DistributedRMCRT(
                grid, benchmark_property_init(bench), compute_boundary_flux=True,
                wall_emissivity=0.5, **{option: value},
            )
        # the same options without the flux task run
        DistributedRMCRT(grid, benchmark_property_init(bench), **{option: value})

    def test_agrees_with_single_level_radiometer(self, pipeline):
        """The multi-level pipeline flux statistically matches the
        single-level VirtualRadiometer on the same physics."""
        bench, grid, _, result = pipeline
        grid1 = bench.single_level_grid()
        props = bench.properties_for_level(grid1.finest_level)
        fields = LevelFields.from_properties(grid1.finest_level, props)
        direct = VirtualRadiometer(rays_per_face=256, seed=5).incident_flux(
            fields, 0, 0
        )
        pipeline_face = result.wall_flux[0]  # x- wall
        rel = abs(pipeline_face.mean() - direct.mean()) / direct.mean()
        # boundary rays are the onion's worst case: every ray crosses
        # the entire domain, almost all of it on the (here extremely
        # coarse, 4^3) radiation level — a real systematic coarsening
        # error of O(10%) at this toy resolution, shrinking with the
        # coarse mesh like any onion error
        assert rel < 0.25


class TestMultilevelRadiometerUnit:
    def make_fields(self, n=8, kappa=1.0):
        box = Box.cube(n)
        props = RadiativeProperties.from_fields(
            box, abskg=np.full(box.extent, kappa), sigma_t4=np.ones(box.extent)
        )
        return LevelFields(
            abskg=props.abskg, sigma_t4=props.sigma_t4, cell_type=props.cell_type,
            interior=box, dx=(1.0 / n,) * 3, anchor=(0.0,) * 3,
        )

    def test_single_level_list_matches_radiometer(self):
        """With one level and no ROI the multilevel helper reduces to
        the plain radiometer math (same estimator, same bounds)."""
        fields = self.make_fields(8, kappa=200.0)
        face = Box((0, 0, 0), (1, 8, 8))
        rng = np.random.default_rng(3)
        q = incident_flux_multilevel([fields], 0, 0, face, 64, rng)
        assert q.shape == (8, 8)
        assert np.allclose(q, 1.0, rtol=0.1)  # optically thick -> blackbody

    def test_invalid_wall(self):
        fields = self.make_fields()
        with pytest.raises(ReproError):
            incident_flux_multilevel(
                [fields], 5, 0, Box((0, 0, 0), (1, 8, 8)), 4,
                np.random.default_rng(0),
            )

    def test_empty_face_box(self):
        fields = self.make_fields()
        with pytest.raises(ReproError):
            incident_flux_multilevel(
                [fields], 0, 0, Box((0, 0, 0), (0, 8, 8)), 4,
                np.random.default_rng(0),
            )
