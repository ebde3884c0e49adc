"""Tests for the boundary flux in the distributed RMCRT pipeline — the
boiler wall heat flux, computed multi-level from the wall-face rays of
each trace task's launch."""

import numpy as np
import pytest

from repro.grid import Box, CellType
from repro.core import (
    DistributedRMCRT,
    LevelFields,
    TraceOptions,
    VirtualRadiometer,
    benchmark_property_init,
    trace_patch_multi_level,
)
from repro.core import distributed
from repro.core.kernels import LAUNCH_RAYS
from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties, SpectralModel
from repro.radiation.constants import SIGMA_SB
from repro.util.errors import ReproError
from tests.level_fields import whole_level


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
        """The flux adds no task: every trace task (each of the 8
        patches touches walls) computes it beside del.q."""
        _, grid, drm, _ = pipeline
        graph = drm.build_graph()
        names = [t.task.name for t in graph.detailed_tasks]
        assert "rmcrt.boundaryFlux" not in names
        traces = [t.task for t in graph.detailed_tasks if t.task.name == "rmcrt.trace"]
        assert len(traces) == 8
        for task in traces:
            assert "wall_flux" in [c.label.name for c in task.computes]

    def test_face_rays_count_toward_the_launch_share(self, pipeline):
        _, grid, drm, _ = pipeline
        [trace] = [t.task for t in drm.build_graph().detailed_tasks
                   if t.task.name == "rmcrt.trace" and t.patch.patch_id == 0]
        corner = grid.finest_level.patches[0]   # three walls of 8 x 8 faces
        rays = 8 ** 3 * 4 + 3 * 8 * 8 * 32
        assert trace.launch_share(corner) == rays / LAUNCH_RAYS

    @pytest.mark.parametrize("flux, rays", [(True, 69_120), (False, 13_824)])
    def test_rays_traced_is_the_lanes_the_launches_draw(self, flux, rays):
        """24^3 cells at one ray each and, with the flux on, 16 rays on
        each of the 6 x 24^2 wall faces: ``rays_traced`` counts both, as
        the fresh launches do."""
        bench = BurnsChristonBenchmark(resolution=24)
        drm = DistributedRMCRT(
            bench.two_level_grid(refinement_ratio=4, fine_patch_size=8),
            benchmark_property_init(bench), rays_per_cell=1, halo=2, seed=3,
            compute_boundary_flux=flux, flux_rays_per_face=16,
        )
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            result = drm.solve("serial")
        finally:
            set_metrics(previous)
        assert result.rays_traced == rays == registry.value("dda.lanes_launched", handoff=0)

    def test_a_poisoned_flux_names_its_patch(self, monkeypatch):
        """The NaN guard reads the flux too: a face that read cells its
        task was not sent fails the task, with del.q clean."""
        bench = BurnsChristonBenchmark(resolution=8)
        drm = DistributedRMCRT(
            bench.two_level_grid(refinement_ratio=2, fine_patch_size=4),
            benchmark_property_init(bench), rays_per_cell=1, halo=1,
            compute_boundary_flux=True, flux_rays_per_face=2,
        )
        offender = drm.grid.finest_level.patches[5]
        real = distributed.trace_patch_multi_level

        def poisoned(coarse, fine, patches, *args, **kwargs):
            divqs, fluxes = real(coarse, fine, patches, *args, **kwargs)
            for (box, _, _), faces in zip(patches, fluxes):
                if box == offender.box:
                    faces[0][...] = np.nan
            return divqs, fluxes

        monkeypatch.setattr(distributed, "trace_patch_multi_level", poisoned)
        with pytest.raises(ReproError, match=rf"patch {offender.patch_id} read cells outside"):
            drm.solve("serial")

    def test_disabled_by_default(self):
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench), rays_per_cell=2, halo=2
        )
        result = drm.solve("serial")
        assert result.wall_flux is None

    @pytest.mark.parametrize("rays_per_face", [0, -1])
    def test_a_face_without_rays_is_refused_when_built(self, rays_per_face):
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=4)
        with pytest.raises(ReproError, match="rays_per_face must be >= 1"):
            DistributedRMCRT(
                grid, benchmark_property_init(bench), compute_boundary_flux=True,
                flux_rays_per_face=rays_per_face,
            )

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
        return whole_level(props, (1.0 / n,) * 3)

    def test_single_level_list_matches_radiometer(self):
        """With one level, no ROI and no cell rays the trace reduces to
        the plain radiometer math (same estimator, same bounds)."""
        fields = self.make_fields(8, kappa=200.0)
        face = Box((0, 0, 0), (1, 8, 8))
        rng = np.random.default_rng(3)
        divqs, [[q]] = trace_patch_multi_level(
            [], fields, [(None, None, None)], TraceOptions(),
            faces=[[(0, 0, face, rng)]], rays_per_face=64,
        )
        assert divqs == [None]
        assert q.shape == (1, 8, 8)
        assert np.allclose(q, 1.0, rtol=0.1)  # optically thick -> blackbody


TEMPERATURE = 1000.0


def isothermal_init(level, box):
    """A medium at TEMPERATURE, as the walls around it."""
    return {
        "abskg": np.full(box.extent, 2.0),
        "sigma_t4": np.full(box.extent, SIGMA_SB * TEMPERATURE ** 4),
        "cell_type": np.full(box.extent, CellType.FLOW, dtype=np.int8),
    }


class TestIsothermalEnclosure:
    """The closed-form referee: in an enclosure whose medium and walls
    are at one temperature, the radiation is blackbody everywhere, so
    the incident flux on every wall is sigma T^4 — whatever the wall
    emissivity (what a grey wall does not emit it reflects) and however
    the spectrum is split into bands."""

    @pytest.mark.parametrize("case", [
        dict(),
        dict(wall_emissivity=0.5, reflections=True),
        dict(spectral=SpectralModel.build(bands=3, temperature=TEMPERATURE, kappa_exponent=1.0)),
    ], ids=["black", "reflecting", "spectral"])
    def test_incident_flux_is_sigma_t4(self, case):
        bench = BurnsChristonBenchmark(resolution=8)
        drm = DistributedRMCRT(
            bench.two_level_grid(refinement_ratio=2, fine_patch_size=4), isothermal_init,
            rays_per_cell=1, halo=1, seed=2, wall_temperature=TEMPERATURE,
            compute_boundary_flux=True, flux_rays_per_face=8, **case,
        )
        wf = drm.solve("serial").wall_flux / (SIGMA_SB * TEMPERATURE ** 4)
        # one wall's faces, edges excluded: those sum two or three walls
        for wall in [wf[0], wf[-1], wf[:, 0], wf[:, -1], wf[:, :, 0], wf[:, :, -1]]:
            q = wall[1:-1, 1:-1]
            error = 3.0 * q.std() / np.sqrt(q.size)
            assert abs(q.mean() - 1.0) <= drm.options.threshold + error
