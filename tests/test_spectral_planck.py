"""Tests for the Planck sampling machinery and emissivity tables.

The spectral subsystem's statistical foundation: the black-body
fraction function against published table values, inverse-CDF band
sampling against the analytic weights, and the temperature
interpolation/digest behaviour of tabulated emissivity.
"""

import numpy as np
import pytest

from repro.radiation.spectral.emissivity import (
    MATERIALS,
    TabulatedEmissivity,
    named_emissivity,
)
from repro.radiation.spectral.model import SpectralModel, kappa_scales_power_law
from repro.radiation.spectral.planck import (
    PlanckTable,
    default_band_edges,
    fraction_inverse,
    planck_fraction,
)
from repro.util.errors import ReproError
from repro.util.rng import RandomStreams

#: published black-body fraction table values (lambda*T in um*K -> F),
#: e.g. Incropera & DeWitt Table 12.2
FRACTION_TABLE = {
    2000.0: 0.066728,
    2898.0: 0.250108,
    4000.0: 0.480877,
    6000.0: 0.737818,
    8000.0: 0.856288,
    10000.0: 0.914199,
    20000.0: 0.985602,
}


class TestPlanckFraction:
    def test_limits(self):
        assert planck_fraction(0.0) == 0.0
        assert planck_fraction(np.inf) == 1.0
        assert planck_fraction(-5.0) == 0.0

    @pytest.mark.parametrize("lt,expected", sorted(FRACTION_TABLE.items()))
    def test_published_table_values(self, lt, expected):
        assert planck_fraction(lt) == pytest.approx(expected, abs=5e-5)

    def test_monotone_and_vectorized(self):
        lt = np.linspace(100.0, 60000.0, 200)
        f = planck_fraction(lt)
        assert f.shape == lt.shape
        assert np.all(np.diff(f) > 0)
        assert np.all((f >= 0) & (f <= 1))

    def test_inverse_round_trips(self):
        for frac in (0.1, 0.25, 0.5, 0.9):
            lam = fraction_inverse(frac, 1000.0)
            assert planck_fraction(lam * 1000.0) == pytest.approx(frac, abs=1e-9)

    def test_array_inverse_is_the_scalar_bisection(self):
        """One pass over an array gives each element the bytes of the
        scalar loop it replaced, kept here as the reference."""
        def scalar_inverse(fraction, temperature):
            lo, hi = 1e-3, 1e6 / temperature
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                below = planck_fraction(mid * temperature) < fraction
                lo, hi = (mid, hi) if below else (lo, mid)
            return 0.5 * (lo + hi)

        fractions = np.array([0.05, 1.0 / 3.0, 0.5, 0.75, 0.99])
        for temperature in (700.0, 1400.0):
            got = fraction_inverse(fractions, temperature)
            assert got.shape == fractions.shape
            expected = [scalar_inverse(float(f), temperature) for f in fractions]
            np.testing.assert_array_equal(got, expected)

    def test_inverse_rejects_bad_input(self):
        with pytest.raises(ReproError):
            fraction_inverse(0.0, 1000.0)
        with pytest.raises(ReproError):
            fraction_inverse(0.5, -1.0)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_inverse_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ReproError, match="positive and finite"):
            fraction_inverse(0.5, temperature)


class TestPlanckTable:
    def test_equal_fraction_edges_give_equal_weights(self):
        table = PlanckTable.equal_fraction(4, 1500.0)
        assert table.nbands == 4
        np.testing.assert_allclose(table.weights, 0.25, atol=1e-6)
        assert table.coverage == pytest.approx(1.0)
        assert table.cdf[-1] == 1.0

    def test_explicit_edges_weights_sum_to_one(self):
        table = PlanckTable.from_edges((0.5, 2.0, 5.0, 20.0), 1000.0)
        assert sum(table.weights) == pytest.approx(1.0)
        assert table.coverage < 1.0  # edges do not span the spectrum

    def test_band_median_lies_inside_its_band(self):
        table = PlanckTable.from_edges((0.0, 2.5, 6.0, np.inf), 1200.0)
        for b in range(table.nbands):
            med = table.band_median_um(b)
            assert table.edges_um[b] < med < table.edges_um[b + 1]

    def test_sampling_matches_weights(self):
        table = PlanckTable.from_edges((0.0, 2.5, 6.0, np.inf), 1200.0)
        rng = RandomStreams(7).named("spectral", 0)
        bands = table.sample_bands(rng, 200_000)
        freq = np.bincount(bands, minlength=3) / bands.size
        np.testing.assert_allclose(freq, table.weights, atol=5e-3)

    def test_sampling_is_deterministic_per_stream(self):
        table = PlanckTable.equal_fraction(3, 1000.0)
        a = table.sample_bands(RandomStreams(3).named("spectral", 1), 512)
        b = table.sample_bands(RandomStreams(3).named("spectral", 1), 512)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ReproError):
            PlanckTable.from_edges((2.0, 1.0), 1000.0)  # decreasing
        with pytest.raises(ReproError):
            PlanckTable.from_edges((0.0,), 1000.0)  # too few
        with pytest.raises(ReproError):
            PlanckTable.from_edges((0.0, 1.0), -5.0)  # bad temperature
        with pytest.raises(ReproError):
            default_band_edges(0, 1000.0)

    @pytest.mark.parametrize("edges", [(np.nan, 1.0, 2.0), (0.0, np.nan, 5.0, np.inf)])
    def test_nan_edges_rejected(self, edges):
        with pytest.raises(ReproError, match="band edges must be numbers"):
            PlanckTable.from_edges(edges, 1000.0)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ReproError, match="positive and finite"):
            PlanckTable.from_edges((0.0, np.inf), temperature)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_equal_fraction_refuses_before_bisecting(self, temperature, monkeypatch):
        from repro.radiation.spectral import planck

        calls = []
        fraction = planck.planck_fraction
        monkeypatch.setattr(planck, "planck_fraction",
                            lambda lt: calls.append(lt) or fraction(lt))
        with pytest.raises(ReproError, match="positive and finite"):
            PlanckTable.equal_fraction(4, temperature)
        assert calls == []


class TestTabulatedEmissivity:
    def table(self):
        return TabulatedEmissivity(
            temperatures=[500.0, 1000.0],
            values=[[0.2, 0.4], [0.4, 0.8]],
        )

    def test_interpolates_between_rows(self):
        eps = self.table().eps_at(750.0)
        np.testing.assert_allclose(eps, [0.3, 0.6])

    def test_clamps_outside_the_table(self):
        t = self.table()
        np.testing.assert_allclose(t.eps_at(100.0), [0.2, 0.4])
        np.testing.assert_allclose(t.eps_at(5000.0), [0.4, 0.8])

    def test_band_values_vectorized_lookup(self):
        t = self.table()
        temps = np.array([500.0, 750.0, 1000.0])
        np.testing.assert_allclose(t.band_values(1, temps), [0.4, 0.6, 0.8])

    def test_gray_table_is_identity(self):
        gray = TabulatedEmissivity.gray(3)
        assert gray.is_gray
        np.testing.assert_array_equal(gray.eps_at(1234.5), np.ones(3))
        assert not self.table().is_gray

    def test_digest_distinguishes_tables(self):
        a = self.table()
        b = TabulatedEmissivity(
            temperatures=[500.0, 1000.0],
            values=[[0.2, 0.4], [0.4, 0.81]],
        )
        assert a.digest() != b.digest()
        assert a.digest() == self.table().digest()

    def test_materials_catalog(self):
        table = PlanckTable.equal_fraction(3, 1200.0)
        for name in MATERIALS:
            eps = named_emissivity(name, table)
            assert eps.nbands == 3
            assert np.all((eps.values > 0) & (eps.values <= 1))
        assert named_emissivity("gray", table).is_gray
        with pytest.raises(ReproError, match="unknown emissivity"):
            named_emissivity("unobtanium", table)

    def test_validation(self):
        with pytest.raises(ReproError):
            TabulatedEmissivity(temperatures=[500.0, 400.0],
                                values=[[0.5], [0.5]])
        with pytest.raises(ReproError):
            TabulatedEmissivity(temperatures=[500.0], values=[[1.5]])


class TestSpectralModel:
    def test_gray_limit_properties(self):
        model = SpectralModel.gray_limit()
        assert model.is_gray_limit
        assert model.nbands == 1
        assert model.planck_mean_scale == 1.0

    def test_normalized_kappa_scales_have_unit_planck_mean(self):
        model = SpectralModel.build(bands=4, temperature=1400.0,
                                    kappa_exponent=0.8)
        assert model.planck_mean_scale == pytest.approx(1.0)
        assert not model.is_gray_limit

    def test_kappa_power_law_orders_bands(self):
        table = PlanckTable.equal_fraction(3, 1400.0)
        scales = kappa_scales_power_law(table, exponent=1.0)
        assert np.all(np.diff(scales) > 0)  # longer wavelength, thicker
        flat = kappa_scales_power_law(table, exponent=0.0)
        np.testing.assert_allclose(flat, 1.0)

    def test_digest_separates_models(self):
        a = SpectralModel.build(bands=3, temperature=1400.0)
        b = SpectralModel.build(bands=3, temperature=1500.0)
        c = SpectralModel.build(bands=3, temperature=1400.0,
                                emissivity="tungsten")
        assert len({a.digest(), b.digest(), c.digest()}) == 3
        assert a.digest() == SpectralModel.build(bands=3,
                                                 temperature=1400.0).digest()

    def test_band_count_mismatch_rejected(self):
        with pytest.raises(ReproError):
            SpectralModel(
                table=PlanckTable.equal_fraction(3, 1000.0),
                kappa_scales=np.ones(3),
                emissivity=TabulatedEmissivity.gray(2),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kappa_scales_rejected(self, bad):
        with pytest.raises(ReproError, match="finite and non-negative"):
            SpectralModel(
                table=PlanckTable.equal_fraction(3, 1000.0),
                kappa_scales=[1.0, bad, 1.0],
                emissivity=TabulatedEmissivity.gray(3),
            )

    def test_a_nan_kappa_exponent_fails_the_build(self):
        with pytest.raises(ReproError, match="finite and non-negative"):
            SpectralModel.build(bands=3, temperature=1400.0, kappa_exponent=np.nan)
