"""Tests for inter-level transfer operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.grid.refinement import (
    coarsen_average,
    coarsen_max,
    refine_inject,
)
from repro.util.errors import GridError


def small_fields(n=8):
    return arrays(
        dtype=np.float64,
        shape=(n, n, n),
        elements=st.floats(0, 100, allow_nan=False, width=32),
    )


class TestCoarsenAverage:
    def test_constant_preserved(self):
        fine = np.full((8, 8, 8), 3.5)
        assert np.allclose(coarsen_average(fine, 2), 3.5)

    def test_block_means(self):
        fine = np.zeros((4, 4, 4))
        fine[:2, :2, :2] = 8.0
        coarse = coarsen_average(fine, 2)
        assert coarse.shape == (2, 2, 2)
        assert coarse[0, 0, 0] == 8.0
        assert coarse[1, 1, 1] == 0.0

    def test_anisotropic_ratio(self):
        fine = np.arange(2 * 4 * 8, dtype=float).reshape(2, 4, 8)
        coarse = coarsen_average(fine, (1, 2, 4))
        assert coarse.shape == (2, 2, 2)
        assert np.isclose(coarse[0, 0, 0], fine[0, :2, :4].mean())

    def test_indivisible_rejected(self):
        with pytest.raises(GridError):
            coarsen_average(np.zeros((5, 4, 4)), 2)

    def test_bad_ratio_rejected(self):
        with pytest.raises(GridError):
            coarsen_average(np.zeros((4, 4, 4)), 0)

    @given(small_fields())
    @settings(max_examples=50)
    def test_conservation(self, fine):
        """Global mean is invariant under conservative restriction."""
        for r in (2, 4):
            coarse = coarsen_average(fine, r)
            assert np.isclose(coarse.mean(), fine.mean(), rtol=1e-10, atol=1e-12)

    @given(small_fields())
    @settings(max_examples=50)
    def test_bounds(self, fine):
        coarse = coarsen_average(fine, 2)
        assert coarse.min() >= fine.min() - 1e-12
        assert coarse.max() <= fine.max() + 1e-12


class TestCoarsenMax:
    def test_any_solid_marks_coarse(self):
        ct = np.zeros((4, 4, 4), dtype=np.int8)
        ct[3, 3, 3] = 2  # one intrusion cell
        coarse = coarsen_max(ct, 2)
        assert coarse[1, 1, 1] == 2
        assert coarse[0, 0, 0] == 0

    @given(small_fields(n=4))
    def test_max_dominates_average(self, fine):
        assert np.all(coarsen_max(fine, 2) >= coarsen_average(fine, 2) - 1e-12)


class TestRefineInject:
    def test_shape(self):
        out = refine_inject(np.ones((2, 3, 4)), (2, 1, 3))
        assert out.shape == (4, 3, 12)

    def test_children_copy_parent(self):
        coarse = np.arange(8, dtype=float).reshape(2, 2, 2)
        fine = refine_inject(coarse, 2)
        assert fine[0, 0, 0] == fine[1, 1, 1] == coarse[0, 0, 0]
        assert fine[2, 2, 2] == coarse[1, 1, 1]

    @given(small_fields(n=4), st.integers(1, 3))
    @settings(max_examples=50)
    def test_coarsen_is_left_inverse(self, coarse, r):
        """coarsen_average(refine_inject(x)) == x exactly."""
        assert np.allclose(coarsen_average(refine_inject(coarse, r), r), coarse)
