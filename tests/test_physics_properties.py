"""Property-based physics invariants (hypothesis) spanning the RMCRT
core: path-length exactness, attenuation algebra, reciprocity-style
bounds, and decomposition invariance under random configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box
from repro.core import (
    LevelFields,
    RayBatch,
    isotropic_directions,
    march,
    march_single_ray,
)
from repro.core.dda import RayStatus
from repro.core.kernels import LAUNCH_RAYS
from repro.perf import MetricsRegistry, set_metrics
from repro.radiation import RadiativeProperties
from tests.level_fields import whole_level


def uniform_fields(n, kappa, st4=1.0, wall_emis=1.0):
    box = Box.cube(n)
    props = RadiativeProperties.from_fields(
        box,
        abskg=np.full(box.extent, kappa),
        sigma_t4=np.full(box.extent, st4),
        wall_emissivity=wall_emis,
    )
    return whole_level(props, (1.0 / n,) * 3)


def chord_to_wall(origin, direction, eps=1e-12):
    """Exact distance from origin to the unit-cube boundary along d."""
    t = np.inf
    for k in range(3):
        d = direction[k]
        if d > eps:
            t = min(t, (1.0 - origin[k]) / d)
        elif d < -eps:
            t = min(t, -origin[k] / d)
    return t


@st.composite
def interior_rays(draw, n=8):
    """A random origin strictly inside the cube and a random direction."""
    pos = [draw(st.floats(0.05, 0.95)) for _ in range(3)]
    cos_t = draw(st.floats(-1, 1))
    phi = draw(st.floats(0, 2 * np.pi))
    sin_t = np.sqrt(max(0.0, 1 - cos_t ** 2))
    d = [sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t]
    return np.array(pos), np.array(d)


class TestPathLengthExactness:
    @given(interior_rays(), st.floats(0.1, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_tau_equals_kappa_times_chord(self, ray, kappa):
        """In a uniform medium the accumulated optical depth at the wall
        is exactly kappa times the geometric chord length — the sum of
        DDA segment lengths telescopes with zero drift."""
        origin, d = ray
        fields = uniform_fields(8, kappa)
        sum_i, tau, status, _ = march_single_ray(
            fields, origin, d, threshold=1e-300
        )
        expected = kappa * chord_to_wall(origin, d)
        assert status == RayStatus.WALL_HIT
        assert np.isclose(tau, expected, rtol=1e-9, atol=1e-12)

    @given(interior_rays(), st.floats(0.1, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_beer_lambert_closed_form(self, ray, kappa):
        """sumI = Ib (1 - exp(-kappa L)) for a uniform hot medium and a
        cold black wall, for ANY ray."""
        origin, d = ray
        fields = uniform_fields(8, kappa)
        sum_i, _, _, _ = march_single_ray(fields, origin, d, threshold=1e-300)
        L = chord_to_wall(origin, d)
        expected = (1.0 / np.pi) * (1.0 - np.exp(-kappa * L))
        assert np.isclose(sum_i, expected, rtol=1e-9, atol=1e-12)


class TestMonotonicity:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_sum_i_monotone_in_kappa(self, seed):
        """Hot medium, cold walls: a thicker gas yields larger incoming
        intensity for the SAME geometric rays."""
        rng = np.random.default_rng(seed)
        origins = np.asarray(
            uniform_fields(6, 1.0).cell_center(rng.integers(1, 5, size=(16, 3)))
        )
        dirs = isotropic_directions(rng, 16)
        sums = []
        for kappa in (0.2, 1.0, 5.0):
            fields = uniform_fields(6, kappa)
            batch = RayBatch.fresh(origins.copy(), dirs.copy())
            march(fields=fields, batch=batch, threshold=1e-12)
            sums.append(batch.sum_i.copy())
        assert (sums[0] <= sums[1] + 1e-12).all()
        assert (sums[1] <= sums[2] + 1e-12).all()

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_reflective_walls_bounded_by_blackbody(self, emis):
        """With reflections on, sumI can approach but never exceed the
        black-body intensity of the hot medium (Ib = 1/pi)."""
        fields = uniform_fields(6, kappa=1.0, wall_emis=emis)
        rng = np.random.default_rng(int(emis * 1e6))
        origins = np.asarray(fields.cell_center(rng.integers(1, 5, size=(32, 3))))
        dirs = isotropic_directions(rng, 32)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, reflections=True, threshold=1e-6)
        assert (batch.sum_i <= 1.0 / np.pi + 1e-9).all()
        assert (batch.sum_i >= 0).all()


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk, rays_per_cell", [
        pytest.param(7, 8, id="7"),
        pytest.param(64, 8, id="64"),
        pytest.param(100000, 8, id="100000"),
        # the default: a patch one cell's rays wider than the launch width is cut in two
        pytest.param(None, LAUNCH_RAYS // 4 ** 3 + 1, id="width"),
    ])
    def test_chunk_size_does_not_change_divq(self, chunk, rays_per_cell):
        """The kernel chunking is pure mechanics: any chunk size yields
        the identical answer for the same rays."""
        from repro.core import TraceOptions, trace_patch_single_level
        from repro.radiation import BurnsChristonBenchmark

        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)
        fields = LevelFields.from_properties(grid.finest_level, props)
        box = Box.cube(4, lo=(2, 2, 2))
        options = TraceOptions(rays_per_cell=rays_per_cell)
        base = trace_patch_single_level(
            fields, box, options, np.random.default_rng(5), chunk_rays=1 << 17
        )
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            other = trace_patch_single_level(
                fields, box, options, np.random.default_rng(5),
                **({} if chunk is None else {"chunk_rays": chunk}),
            )
        finally:
            set_metrics(previous)
        np.testing.assert_array_equal(base, other)
        launches = -(-4 ** 3 * rays_per_cell // (chunk or LAUNCH_RAYS))
        assert registry.value("dda.calls", handoff="0") == launches

    def test_launch_memory_does_not_grow_with_the_patch(self):
        """A patch four launches wide is marched a launch at a time: its
        solve may hold more than a one-launch patch's (the rays are all
        drawn first) but nowhere near four times as much."""
        import tracemalloc

        from repro.core import SingleLevelRMCRT
        from repro.radiation import BurnsChristonBenchmark

        bench = BurnsChristonBenchmark(resolution=32)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)

        def solve_peak(rays_per_cell):
            assert 32 ** 3 * rays_per_cell % LAUNCH_RAYS == 0
            tracemalloc.start()
            try:
                SingleLevelRMCRT(rays_per_cell=rays_per_cell, seed=3).solve(grid, props)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert solve_peak(4) <= 1.5 * solve_peak(1)


class TestEnergyBounds:
    @given(st.floats(0.2, 3.0), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_divq_bounded_by_emission(self, kappa, seed):
        """0 <= del.q <= 4 kappa sigma_t4 for hot medium + cold walls:
        a cell cannot lose more than it emits, nor gain net energy."""
        from repro.core import SingleLevelRMCRT
        from repro.grid import build_single_level_grid

        n = 6
        box = Box.cube(n)
        props = RadiativeProperties.from_fields(
            box,
            abskg=np.full(box.extent, kappa),
            sigma_t4=np.ones(box.extent),
        )
        grid = build_single_level_grid(n)
        res = SingleLevelRMCRT(rays_per_cell=8, seed=seed).solve(grid, props)
        assert (res.divq >= -1e-12).all()
        assert (res.divq <= 4.0 * kappa + 1e-9).all()
