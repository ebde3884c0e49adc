"""Tests for ray generation: isotropy, origins, reproducibility."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box
from repro.core import (
    cosine_hemisphere_directions,
    generate_patch_rays,
    isotropic_directions,
    region_cells,
)
from repro.radiation import RadiativeProperties
from tests.level_fields import whole_level


def make_fields(n=8, kappa=1.0):
    box = Box.cube(n)
    props = RadiativeProperties.from_fields(
        box, abskg=np.full(box.extent, kappa), sigma_t4=np.ones(box.extent)
    )
    return whole_level(props, (1.0 / n,) * 3)


class TestIsotropicDirections:
    def test_unit_norm(self):
        d = isotropic_directions(np.random.default_rng(0), 1000)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)

    def test_first_moment_vanishes(self):
        d = isotropic_directions(np.random.default_rng(1), 200_000)
        assert np.abs(d.mean(axis=0)).max() < 5e-3

    def test_cos_theta_uniform(self):
        """cos(theta) of isotropic directions is U(-1,1): check moments."""
        d = isotropic_directions(np.random.default_rng(2), 200_000)
        cz = d[:, 2]
        assert abs(cz.mean()) < 5e-3
        assert abs((cz ** 2).mean() - 1 / 3) < 5e-3

    def test_octant_occupancy(self):
        d = isotropic_directions(np.random.default_rng(3), 80_000)
        octants = (d[:, 0] > 0).astype(int) * 4 + (d[:, 1] > 0) * 2 + (d[:, 2] > 0)
        counts = np.bincount(octants, minlength=8)
        assert counts.min() > 0.9 * 80_000 / 8

    def test_deterministic(self):
        a = isotropic_directions(np.random.default_rng(7), 10)
        b = isotropic_directions(np.random.default_rng(7), 10)
        assert np.array_equal(a, b)


class TestOrigins:
    """Origins as a launch draws them (``generate_patch_rays``)."""

    def test_jittered_inside_cells(self):
        fields = make_fields(4)
        cells = [Box.cube(1), Box.cube(1, lo=(3, 3, 3))]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        o, _ = generate_patch_rays(fields, cells, 50, rngs)
        assert o.shape == (100, 3)
        dx = 0.25
        first = o[:50]
        assert (first >= 0).all() and (first <= dx).all()
        last = o[50:]
        assert (last >= 3 * dx).all() and (last <= 1.0).all()

    def test_centered(self):
        fields = make_fields(4)
        o, _ = generate_patch_rays(fields, [Box.cube(1, lo=(1, 2, 3))], 3,
                                   [np.random.default_rng(0)], centered_origins=True)
        assert np.allclose(o, fields.cell_center(np.array([1, 2, 3])))

    def test_grouped_by_cell(self):
        fields = make_fields(4)
        o, _ = generate_patch_rays(fields, [Box((0, 0, 0), (2, 1, 1))], 4,
                                   [np.random.default_rng(0)], centered_origins=True)
        assert np.allclose(o[:4], o[0])
        assert not np.allclose(o[4], o[0])


class TestRegionCells:
    def test_order_matches_reshape(self):
        box = Box((1, 1, 1), (3, 4, 5))
        cells = region_cells(box)
        assert cells.shape == (box.volume, 3)
        arr = np.arange(box.volume).reshape(box.extent)
        for row, cell in enumerate(cells):
            idx = tuple(cell[d] - box.lo[d] for d in range(3))
            assert arr[idx] == row

    def test_generate_patch_rays_shapes(self):
        fields = make_fields(4)
        o, d = generate_patch_rays(fields, [Box.cube(2)], 5, [np.random.default_rng(0)])
        assert o.shape == d.shape == (40, 3)


#: centered_origins -> (origins sha256, directions sha256) of the draw below
RAY_DRAW_PINS = {
    False: (
        "5b9a95d5a4b553e11bf48e011813db5eb75b90e85b48c38f0d4e913093038db3",
        "3e839cd72ab81d27eada71c1980fe4119db76a1a09efa874a6343ed7a52fbb33",
    ),
    True: (
        "80454d4e55477e4c131a2f5ecb275f1d2e79e30ae8e172c3f0942fa2d0793605",
        "05ecfd3c3626aa8758374a601c96f92c93533ddb818e5e4afced7dcb48ddbf81",
    ),
}


@pytest.mark.parametrize("centered", [False, True])
def test_ray_draw_is_pinned(centered):
    """The rays of a patch, byte for byte: every solver's answer hangs on
    this draw, so a rewrite of how origins or directions are computed
    must reproduce it exactly (anisotropic spacing, an offset anchor)."""
    box = Box.cube(6)
    props = RadiativeProperties.from_fields(
        box, abskg=np.ones(box.extent), sigma_t4=np.ones(box.extent)
    )
    fields = whole_level(props, (0.1, 0.125, 0.2), (-0.3, 0.0, 0.25))
    o, d = generate_patch_rays(
        fields, [Box((1, 0, 2), (5, 3, 6))], 3, [np.random.default_rng(2024)],
        centered_origins=centered,
    )
    assert o.shape == d.shape == (144, 3)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (o, d))
    assert digests == RAY_DRAW_PINS[centered]


class TestCosineHemisphere:
    @pytest.mark.parametrize("axis,side", [(0, 0), (1, 1), (2, 0)])
    def test_points_inward(self, axis, side):
        d = cosine_hemisphere_directions(np.random.default_rng(0), 5000, axis, side)
        comp = d[:, axis]
        assert (comp > 0).all() if side == 0 else (comp < 0).all()

    def test_unit_norm(self):
        d = cosine_hemisphere_directions(np.random.default_rng(0), 1000, 0, 0)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)

    def test_cosine_distribution(self):
        """E[cos theta] = 2/3 for cosine-weighted sampling."""
        d = cosine_hemisphere_directions(np.random.default_rng(1), 200_000, 2, 0)
        assert abs(d[:, 2].mean() - 2 / 3) < 3e-3
