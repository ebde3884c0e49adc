"""Cross-validation tests for the spectral option of the RMCRT trace.

The load-bearing contracts: the spectral trace in its gray limit is
bit-identical to the gray solver (same draws, same march, same
reduction) on one level and on two, the vectorized and scalar backends
agree on genuinely spectral cases, and the tabulated emissivity
actually changes the answer when walls are hot.
"""

import numpy as np
import pytest

from repro.core.multi_level import MultiLevelRMCRT
from repro.core.single_level import RMCRTResult, SingleLevelRMCRT
from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.spectral.model import SpectralModel
from repro.radiation.spectral.scenario import SpectralCase, get_scenario
from repro.util.errors import ReproError
from repro.util.rng import RandomStreams
from tests.test_spectral_intrusions import COMBUSTION, wsgg_model

RAYS = 4
RESOLUTION = 8


def gray_limit_case(**overrides):
    kw = dict(
        name="gray-limit", model=SpectralModel.gray_limit(),
        resolution=RESOLUTION, rays_per_cell=RAYS,
    )
    kw.update(overrides)
    return SpectralCase(**kw)


def spectral_case(emissivity="tungsten", **overrides):
    kw = dict(
        name="spectral",
        model=SpectralModel.build(
            bands=3, temperature=1400.0, kappa_exponent=0.8,
            emissivity=emissivity,
        ),
        resolution=RESOLUTION, rays_per_cell=RAYS,
        wall_temperature=0.5, wall_emissivity=0.8,
    )
    kw.update(overrides)
    return SpectralCase(**kw)


def census_solve(case, backend="vectorized"):
    """A case's solve and its band census: the rays the trace drew into
    each band, read off its ``spectral.rays`` counters."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        result = case.solve(backend=backend)
    finally:
        set_metrics(previous)
    census = [registry.value("spectral.rays", band=b) for b in range(case.model.nbands)]
    return result, np.array(census, dtype=np.int64)


class TestGrayLimit:
    def test_vectorized_bit_identical_to_gray_solver(self):
        case = gray_limit_case()
        grid, props = case.prepare()
        gray = SingleLevelRMCRT(rays_per_cell=RAYS).solve(grid, props)
        spectral = case.tracer(backend="vectorized").solve(grid, props)
        np.testing.assert_array_equal(spectral.divq, gray.divq)
        assert spectral.rays_traced == gray.rays_traced

    def test_scalar_matches_gray_solver(self):
        # the scalar loop accumulates per ray rather than per chunk, so
        # agreement with the batched gray kernel is to round-off, not bits
        case = gray_limit_case()
        grid, props = case.prepare()
        gray = SingleLevelRMCRT(rays_per_cell=RAYS).solve(grid, props)
        spectral = case.tracer(backend="scalar").solve(grid, props)
        np.testing.assert_allclose(spectral.divq, gray.divq,
                                   rtol=1e-12, atol=1e-14)

    def test_gray_limit_single_band_census(self):
        result, census = census_solve(gray_limit_case())
        assert census.shape == (1,)
        assert census[0] == result.rays_traced

    def test_two_level_gray_limit_bit_identical_to_gray_solver(self):
        bench = BurnsChristonBenchmark(resolution=16)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        props = bench.properties_for_level(grid.finest_level)
        gray = MultiLevelRMCRT(rays_per_cell=RAYS, halo=2).solve(grid, props)
        spectral = MultiLevelRMCRT(
            rays_per_cell=RAYS, halo=2, spectral=SpectralModel.gray_limit()
        ).solve(grid, props)
        np.testing.assert_array_equal(spectral.divq, gray.divq)


class TestBackendAgreement:
    def test_vectorized_matches_scalar_multiband(self):
        # tungsten walls, and a WSGG band set (Planck-mean scale 1.8125)
        for case in (spectral_case(), spectral_case(model=wsgg_model(*COMBUSTION))):
            vec, vec_census = census_solve(case, backend="vectorized")
            ref, ref_census = census_solve(case, backend="scalar")
            np.testing.assert_allclose(vec.divq, ref.divq, rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(vec_census, ref_census)

    def test_backends_share_band_draws(self):
        # identical band census proves both backends consumed the same
        # named spectral stream, not merely statistically similar ones
        case = spectral_case(emissivity="gray")
        _, vec = census_solve(case, backend="vectorized")
        _, ref = census_solve(case, backend="scalar")
        np.testing.assert_array_equal(vec, ref)


class TestSpectralPhysics:
    def test_band_census_accounts_for_every_ray(self):
        result, census = census_solve(spectral_case())
        assert census.sum() == result.rays_traced
        assert np.all(census > 0)  # 3 equal-weight bands

    def test_census_follows_planck_weights(self):
        case = spectral_case(rays_per_cell=16)
        result, census = census_solve(case)
        freq = census / result.rays_traced
        np.testing.assert_allclose(freq, case.model.table.weights, atol=0.02)

    def test_emissivity_table_changes_hot_wall_answer(self):
        grid, props = spectral_case().prepare()
        tungsten = spectral_case(emissivity="tungsten")
        gray_walls = spectral_case(emissivity="gray")
        a = tungsten.tracer().solve(grid, props)
        b = gray_walls.tracer().solve(grid, props)
        assert np.max(np.abs(a.divq - b.divq)) > 0.0

    def test_spectral_redistribution_is_not_a_rescale(self):
        # normalised kappa scales keep the Planck-mean medium identical,
        # so the spectral answer differs from gray without diverging
        case = spectral_case(emissivity="gray")
        grid, props = case.prepare()
        gray = SingleLevelRMCRT(rays_per_cell=RAYS).solve(grid, props)
        spectral = case.tracer().solve(grid, props)
        assert case.model.planck_mean_scale == pytest.approx(1.0)
        assert np.max(np.abs(spectral.divq - gray.divq)) > 0.0
        scale = np.linalg.norm(spectral.divq) / np.linalg.norm(gray.divq)
        assert 0.5 < scale < 2.0

    def test_result_surface(self):
        result = spectral_case().solve()
        assert isinstance(result, RMCRTResult)
        assert result.divq.shape == (RESOLUTION,) * 3
        assert np.all(np.isfinite(result.divq))
        assert isinstance(result.solve_time_s, float)
        assert result.solve_time_s > 0.0


class TestDeterminism:
    def test_same_seed_same_answer(self):
        a = spectral_case().solve()
        b = spectral_case().solve()
        np.testing.assert_array_equal(a.divq, b.divq)

    def test_seed_changes_answer(self):
        a = spectral_case().solve()
        b = spectral_case(seed=1).solve()
        assert np.max(np.abs(a.divq - b.divq)) > 0.0

    def test_external_streams_match_internal_seed(self):
        case = spectral_case()
        grid, props = case.prepare()
        internal = case.tracer().solve(grid, props)
        external = case.tracer().solve(grid, props, streams=RandomStreams(0))
        np.testing.assert_array_equal(internal.divq, external.divq)


class TestScenarios:
    def test_registry_lookup(self):
        case = get_scenario("gray-limit")
        assert isinstance(case, SpectralCase)
        assert case.model.is_gray_limit

    def test_unknown_scenario(self):
        with pytest.raises(ReproError, match="unknown spectral scenario"):
            get_scenario("nope")

    def test_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown backend"):
            SingleLevelRMCRT(spectral=SpectralModel.gray_limit(), backend="cuda")
