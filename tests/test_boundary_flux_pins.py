"""Byte pins of the wall flux, recorded before its face rays joined the
trace task's launch (when the flux had a task and a march of its own):
the flux and del.q of ``test_boundary_flux_pipeline.py``'s scene and of
``test_launch_fusion.py``'s boundary-flux scene, and the radiometer's six
walls on a single-level scene. Face rays are lanes of their patch's
launch, and lanes are independent, so none of these may move; nor may
del.q move when the flux is turned on.
"""

import hashlib

import numpy as np

from repro.core import DistributedRMCRT, VirtualRadiometer, benchmark_property_init
from repro.grid import Box
from repro.radiation import RadiativeProperties, SpectralModel
from tests.test_boundary_flux_pipeline import pipeline  # noqa: F401  (fixture)
from tests.level_fields import whole_level
from tests.test_launch_fusion import SCENES, thin_pipeline


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_pipeline_scene(pipeline):  # noqa: F811
    bench, grid, drm, result = pipeline
    assert sha(result.wall_flux) == (
        "3a17f90494b8048e3153dca04c9f91bed6871b8f3892a8bab69c35976aba29a4"
    )
    assert sha(result.divq) == (
        "a4e96845fff43e8edc393d1e58b79aa20c111923aeebe2473cc25d45b25f4f57"
    )
    options = drm.options
    flux_off = DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=options.rays_per_cell,
        halo=options.halo, seed=drm.seed,
    ).solve("serial")
    assert np.array_equal(flux_off.divq, result.divq)


def test_launch_fusion_scene():
    result = thin_pipeline(**SCENES["boundary-flux"]).solve("serial")
    assert sha(result.wall_flux) == (
        "fa33659e04261e685a960c3323ea60ff11e39073df748fbb28ebc9415c9cda58"
    )
    assert sha(result.divq) == (
        "518e7b272380b15bb18324bf19450e7b8239ac17187b07dee3b93a1a2a247966"
    )
    gray_limit = thin_pipeline(
        spectral=SpectralModel.gray_limit(), **SCENES["boundary-flux"]
    ).solve("serial")
    assert np.array_equal(gray_limit.wall_flux, result.wall_flux)
    assert np.array_equal(gray_limit.divq, result.divq)


def test_radiometer_all_walls():
    box = Box.cube(8)
    props = RadiativeProperties.from_fields(
        box, abskg=np.ones(box.extent), sigma_t4=np.ones(box.extent)
    )
    fields = whole_level(props, (1.0 / 8,) * 3)
    walls = VirtualRadiometer(rays_per_face=64, seed=7).all_walls(fields)
    assert sha(np.concatenate([walls[wall].ravel() for wall in sorted(walls)])) == (
        "db81c51a5e8dbb67859d26cd1c9032ccf341af9ff551ed8232fa178ce76d0b1c"
    )


def test_divq_does_not_move_with_the_flux():
    """Face rays come after every cell ray, and their bands after the
    cell rays' bands on each patch's stream: del.q is the flux-off one
    with reflections and with a spectral model too."""
    for name in ("reflecting-flux", "spectral-flux"):
        flux_on = thin_pipeline(**SCENES[name]).solve("serial")
        flux_off = thin_pipeline(**dict(SCENES[name], compute_boundary_flux=False)).solve("serial")
        assert np.array_equal(flux_on.divq, flux_off.divq), name
