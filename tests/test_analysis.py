"""Tests for the accuracy instrument: RMS error and convergence order."""

import numpy as np
import pytest

from repro.core import SingleLevelRMCRT
from repro.radiation import BurnsChristonBenchmark, dom_reference_divq
from repro.radiation.analysis import (
    ConvergenceStudy,
    monte_carlo_convergence,
    rms_error,
)
from repro.util.errors import ReproError


def strictly_decreasing(errors):
    return all(b < a for a, b in zip(errors, errors[1:]))


class TestNorms:
    def test_rms(self):
        a = np.zeros((2, 2, 2))
        b = np.full((2, 2, 2), 3.0)
        assert rms_error(a, b) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            rms_error(np.zeros(3), np.zeros(4))


class TestConvergenceStudy:
    def test_exact_order(self):
        ns = [4, 16, 64, 256]
        study = ConvergenceStudy(ns, [1.0 / np.sqrt(n) for n in ns])
        assert study.order == pytest.approx(-0.5)
        assert strictly_decreasing(study.errors)

    def test_validation(self):
        with pytest.raises(ReproError):
            ConvergenceStudy([1.0], [1.0])
        with pytest.raises(ReproError):
            ConvergenceStudy([1.0, 2.0], [1.0])
        with pytest.raises(ReproError):
            ConvergenceStudy([1.0, -2.0], [1.0, 0.5])
        with pytest.raises(ReproError):
            ConvergenceStudy([1.0, 2.0], [1.0, 0.0])

    def test_monte_carlo_driver(self):
        """End-to-end: the library helper reproduces E4's finding."""
        bench = BurnsChristonBenchmark(resolution=10)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)
        reference = dom_reference_divq(props, grid.finest_level.dx,
                                       n_polar=6, n_azimuthal=12)

        def solve(rays):
            return SingleLevelRMCRT(rays_per_cell=rays, seed=21).solve(
                grid, props
            ).divq

        study = monte_carlo_convergence(solve, reference, [4, 16, 64])
        assert strictly_decreasing(study.errors)
        assert study.order == pytest.approx(-0.5, abs=0.3)

    def test_monte_carlo_driver_validation(self):
        with pytest.raises(ReproError):
            monte_carlo_convergence(lambda n: np.zeros(3), np.zeros(3), [4])


class TestSymmetry:
    def test_rmcrt_solution_statistically_symmetric(self):
        """The Burns & Christon del.q keeps the geometry's symmetries
        (mirror in each axis, cyclic axis permutation) up to MC noise."""
        bench = BurnsChristonBenchmark(resolution=8)
        grid = bench.single_level_grid()
        props = bench.properties_for_level(grid.finest_level)
        divq = SingleLevelRMCRT(rays_per_cell=64, seed=2).solve(grid, props).divq
        norm = np.linalg.norm(divq)
        for image in (divq[::-1, :, :], divq[:, ::-1, :], divq[:, :, ::-1],
                      np.transpose(divq, (1, 2, 0))):
            assert np.linalg.norm(divq - image) / norm < 0.05  # MC noise only
