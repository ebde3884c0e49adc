"""Tests for the ARCHES-lite CFD substrate and the coupled driver."""

import numpy as np
import pytest

from repro.arches import (
    BoilerScenario,
    CoupledSimulation,
    EnergyEquation,
    advance,
    laplacian,
    ssp_rk1,
    ssp_rk2,
    ssp_rk3,
    upwind_advection,
)
from repro.arches.operators import pad_field
from repro.util.errors import ReproError


class TestIntegrators:
    def exact_decay(self, integrator, dt, steps=32):
        """Integrate du/dt = -u; measure error vs exp(-t)."""
        u = np.array([1.0])
        for _ in range(steps):
            u = integrator(lambda x, t: -x, u, 0.0, dt)
        return abs(u[0] - np.exp(-dt * steps))

    @pytest.mark.parametrize(
        "integ,order", [(ssp_rk1, 1), (ssp_rk2, 2), (ssp_rk3, 3)]
    )
    def test_convergence_order(self, integ, order):
        e1 = self.exact_decay(integ, dt=0.1)
        e2 = self.exact_decay(integ, dt=0.05, steps=64)
        rate = np.log2(e1 / e2)
        assert order - 0.3 < rate < order + 0.5

    def test_advance_dispatch(self):
        u = np.ones(3)
        out = advance(lambda x, t: 0 * x, u, 0.0, 0.1, order=3)
        assert np.allclose(out, u)
        with pytest.raises(ReproError):
            advance(lambda x, t: x, u, 0.0, 0.1, order=4)

    def test_ssp_linear_invariance(self):
        """All SSP schemes preserve constants exactly."""
        u = np.full(5, 7.0)
        for integ in (ssp_rk1, ssp_rk2, ssp_rk3):
            assert np.allclose(integ(lambda x, t: 0 * x, u, 0, 0.5), 7.0)


def wave_field(n, k=1):
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    return np.sin(k * X) * np.sin(k * Y) * np.sin(k * Z), (2 * np.pi / n,) * 3


class TestOperators:
    def test_pad_modes(self):
        f = np.arange(8.0).reshape(2, 2, 2)
        assert pad_field(f, "periodic")[0, 1, 1] == f[-1, 0, 0]
        assert pad_field(f, "fixed", 9.0)[0, 0, 0] == 9.0
        assert pad_field(f, "neumann")[0, 1, 1] == f[0, 0, 0]
        with pytest.raises(ReproError):
            pad_field(f, "robin")

    def test_laplacian_eigenfunction(self):
        """lap(sin kx sin ky sin kz) = -3k^2 * field (periodic)."""
        f, dx = wave_field(32)
        lap = laplacian(f, dx, bc="periodic")
        assert np.allclose(lap, -3.0 * f, atol=0.05)

    def test_upwind_translates_correctly(self):
        """Constant +x velocity: d(phi)/dt = -u dphi/dx with donor cell."""
        n = 16
        phi = np.zeros((n, n, n))
        phi[4, :, :] = 1.0
        vel = (np.ones_like(phi), np.zeros_like(phi), np.zeros_like(phi))
        rhs = upwind_advection(phi, vel, (1.0,) * 3)
        assert rhs[5, 0, 0] > 0       # front gains
        assert rhs[4, 0, 0] < 0       # peak loses
        assert np.allclose(rhs[: 4], 0)

    def test_upwind_conserves_sum_periodic(self):
        rng = np.random.default_rng(0)
        phi = rng.random((8, 8, 8))
        vel = (np.ones_like(phi), np.zeros_like(phi), np.zeros_like(phi))
        rhs = upwind_advection(phi, vel, (1.0,) * 3, bc="periodic")
        assert abs(rhs.sum()) < 1e-10

class TestEnergyEquation:
    def test_diffusion_smooths(self):
        eq = EnergyEquation(dx=(0.1,) * 3, conductivity=1e-2, bc="neumann")
        t = np.zeros((8, 8, 8))
        t[4, 4, 4] = 100.0
        t2 = eq.step(t, eq.stable_dt())
        assert t2[4, 4, 4] < 100.0
        assert t2[3, 4, 4] > 0.0
        # adiabatic walls: energy conserved
        assert np.isclose(t2.sum(), t.sum(), rtol=1e-12)

    def test_radiative_sink_cools(self):
        eq = EnergyEquation(dx=(0.1,) * 3, conductivity=0.0)
        t = np.full((4, 4, 4), 500.0)
        divq = np.full_like(t, 10.0)  # net emission everywhere
        t2 = eq.step(t, 0.01, divq=divq)
        assert (t2 < 500.0).all()
        assert np.allclose(t2, 500.0 - 0.01 * 10.0)

    def test_heat_source_warms(self):
        eq = EnergyEquation(dx=(0.1,) * 3, conductivity=0.0)
        t = np.zeros((4, 4, 4))
        t2 = eq.step(t, 0.1, heat_source=np.full_like(t, 5.0))
        assert np.allclose(t2, 0.5)

    def test_advection_moves_heat(self):
        eq = EnergyEquation(dx=(1.0,) * 3, conductivity=0.0, bc="periodic")
        t = np.zeros((8, 8, 8))
        t[2, :, :] = 1.0
        vel = (np.ones_like(t), np.zeros_like(t), np.zeros_like(t))
        t2 = eq.step(t, 0.5, velocity=vel)
        assert t2[3].mean() > t[3].mean()

    def test_stable_dt_bounds(self):
        eq = EnergyEquation(dx=(0.1,) * 3, conductivity=1.0)
        v = (np.full((4, 4, 4), 10.0),) * 3
        assert eq.stable_dt(v) <= 0.4 * 0.1 / 10.0
        assert eq.stable_dt() <= 0.4 * 0.1 ** 2 / 6.0

    def test_validation(self):
        with pytest.raises(ReproError):
            EnergyEquation(dx=(0.1,) * 3, rho_cv=0.0)
        eq = EnergyEquation(dx=(0.1,) * 3)
        with pytest.raises(ReproError):
            eq.step(np.zeros((2, 2, 2)), dt=0.0)


class TestBoilerScenario:
    def test_temperature_profile(self):
        sc = BoilerScenario(resolution=16)
        level = sc.grid().finest_level
        t = sc.temperature_field(level)
        assert t.max() <= sc.peak_temperature
        assert t.min() >= sc.ambient_temperature
        # hottest near the axis at 1/3 height
        peak = np.unravel_index(t.argmax(), t.shape)
        assert 6 <= peak[0] <= 9 and 6 <= peak[1] <= 9

    def test_kappa_tracks_flame(self):
        sc = BoilerScenario(resolution=16)
        level = sc.grid().finest_level
        t = sc.temperature_field(level)
        k = sc.kappa_field(level)
        assert np.unravel_index(k.argmax(), k.shape) == np.unravel_index(
            t.argmax(), t.shape
        )
        assert k.min() >= sc.soot_kappa_floor

    def test_radiative_properties_bundle(self):
        sc = BoilerScenario(resolution=8)
        level = sc.grid().finest_level
        props = sc.radiative_properties(level)
        assert props.interior.extent == (8, 8, 8)
        assert (props.interior_view("sigma_t4") > 0).all()

    def test_velocity_axial_jet(self):
        sc = BoilerScenario(resolution=16)
        level = sc.grid().finest_level
        u, v, w = sc.velocity_field(level)
        assert w[8, 8, 8] > w[0, 0, 8]  # jet on the axis
        assert abs(u[8, 8, 8]) < 0.05   # little swirl at the axis

    def test_validation(self):
        with pytest.raises(ReproError):
            BoilerScenario(peak_temperature=100.0, ambient_temperature=600.0)


class TestCoupledSimulation:
    @pytest.fixture(scope="class")
    def result(self):
        sim = CoupledSimulation(
            BoilerScenario(resolution=16),
            rays_per_cell=4,
            radiation_interval=3,
            advect=False,
        )
        return sim.run(9)

    def test_radiation_cadence(self, result):
        assert result.radiation_solves == 3  # steps 0, 3, 6

    def test_net_radiative_cooling(self, result):
        """Hot gas, cooler walls: the domain loses energy overall."""
        h = result.mean_temperature_history
        assert h[-1] < h[0]

    def test_flame_core_cools_fastest(self, result):
        sc = BoilerScenario(resolution=16)
        t0 = sc.temperature_field(sc.grid().finest_level)
        cooled = t0 - result.temperature
        core = np.unravel_index(t0.argmax(), t0.shape)
        assert cooled[core] > np.percentile(cooled, 90) * 0.5
        assert cooled[core] > 0

    def test_divq_positive_in_core(self, result):
        sc = BoilerScenario(resolution=16)
        t0 = sc.temperature_field(sc.grid().finest_level)
        core = np.unravel_index(t0.argmax(), t0.shape)
        assert result.divq[core] > 0

    def test_validation(self):
        with pytest.raises(ReproError):
            CoupledSimulation(radiation_interval=0)
