"""Unit + property tests for integer box region algebra."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.box import Box
from repro.util.errors import GridError


def boxes(max_coord=12, max_extent=8):
    lo = st.tuples(*[st.integers(-max_coord, max_coord)] * 3)
    ext = st.tuples(*[st.integers(0, max_extent)] * 3)
    return st.builds(lambda l, e: Box.from_extent(l, e), lo, ext)


class TestConstruction:
    def test_from_extent(self):
        b = Box.from_extent((1, 2, 3), (4, 5, 6))
        assert b.lo == (1, 2, 3)
        assert b.hi == (5, 7, 9)
        assert b.extent == (4, 5, 6)
        assert b.volume == 120

    def test_cube(self):
        b = Box.cube(8, lo=(2, 2, 2))
        assert b.extent == (8, 8, 8)
        assert b.volume == 512

    def test_empty(self):
        assert Box((0, 0, 0), (0, 5, 5)).empty
        assert Box((3, 3, 3), (2, 5, 5)).empty
        assert not Box((0, 0, 0), (1, 1, 1)).empty

    def test_bad_vector_rejected(self):
        with pytest.raises(GridError):
            Box((0, 0), (1, 1, 1))

    def test_hashable_and_equal(self):
        assert Box.cube(3) == Box.cube(3)
        assert len({Box.cube(3), Box.cube(3), Box.cube(4)}) == 2


class TestQueries:
    def test_contains_point(self):
        b = Box((0, 0, 0), (4, 4, 4))
        assert b.contains_point((0, 0, 0))
        assert b.contains_point((3, 3, 3))
        assert not b.contains_point((4, 0, 0))
        assert not b.contains_point((-1, 0, 0))

    def test_contains_box(self):
        outer = Box.cube(10)
        assert outer.contains_box(Box((2, 2, 2), (5, 5, 5)))
        assert not outer.contains_box(Box((8, 8, 8), (11, 11, 11)))
        # empty boxes are contained everywhere
        assert outer.contains_box(Box((100, 100, 100), (100, 100, 100)))

    def test_negative_extent_clamps_to_zero_volume(self):
        b = Box((5, 5, 5), (3, 9, 9))
        assert b.extent == (0, 4, 4)
        assert b.volume == 0


class TestAlgebra:
    def test_intersection(self):
        a = Box((0, 0, 0), (4, 4, 4))
        b = Box((2, 2, 2), (6, 6, 6))
        assert a.intersect(b) == Box((2, 2, 2), (4, 4, 4))

    def test_disjoint_intersection_empty(self):
        a = Box.cube(2)
        b = Box.cube(2, lo=(5, 5, 5))
        assert a.intersect(b).empty
        assert not a.intersects(b)

    def test_subtract_interior_hole(self):
        outer = Box.cube(4)
        hole = Box((1, 1, 1), (3, 3, 3))
        pieces = outer.subtract(hole)
        assert sum(p.volume for p in pieces) == outer.volume - hole.volume
        for p in pieces:
            assert not p.intersects(hole)

    def test_subtract_no_overlap_returns_self(self):
        a = Box.cube(3)
        assert a.subtract(Box.cube(2, lo=(10, 10, 10))) == [a]

    def test_subtract_full_cover_returns_empty(self):
        a = Box.cube(3)
        assert a.subtract(Box.cube(5, lo=(-1, -1, -1))) == []

    def test_grow(self):
        b = Box.cube(4).grow(2)
        assert b == Box((-2, -2, -2), (6, 6, 6))
        assert Box.cube(4).grow((1, 0, 2)) == Box((-1, 0, -2), (5, 4, 6))

    def test_shift(self):
        assert Box.cube(2).shift((1, -1, 3)) == Box((1, -1, 3), (3, 1, 5))

    def test_coarsen_covers(self):
        b = Box((1, 1, 1), (7, 7, 7))
        c = b.coarsen(4)
        assert c == Box((0, 0, 0), (2, 2, 2))

    def test_coarsen_negative_indices(self):
        b = Box((-3, -3, -3), (3, 3, 3))
        c = b.coarsen(2)
        assert c == Box((-2, -2, -2), (2, 2, 2))

    def test_refine_then_coarsen_roundtrip(self):
        b = Box((1, 2, 3), (4, 5, 6))
        assert b.refine(4).coarsen(4) == b

    def test_bad_ratio(self):
        with pytest.raises(GridError):
            Box.cube(4).coarsen(0)
        with pytest.raises(GridError):
            Box.cube(4).refine((1, -1, 1))


class TestSlices:
    def test_slices_identity_origin(self):
        b = Box((1, 2, 3), (4, 5, 6))
        arr = np.zeros((10, 10, 10))
        arr[b.slices()] = 1
        assert arr.sum() == b.volume

    def test_slices_with_origin(self):
        b = Box((4, 4, 4), (6, 6, 6))
        outer = b.grow(1)
        arr = np.zeros(outer.extent)
        arr[b.slices(origin=outer.lo)] = 1
        assert arr.sum() == 8
        assert arr[0, 0, 0] == 0
        assert arr[1, 1, 1] == 1

    def test_cells_iteration(self):
        b = Box((0, 0, 0), (2, 2, 1))
        assert list(b.cells()) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


class TestProperties:
    @given(boxes(), boxes())
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(boxes(), boxes())
    def test_intersection_contained(self, a, b):
        inter = a.intersect(b)
        if not inter.empty:
            assert a.contains_box(inter)
            assert b.contains_box(inter)

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_subtract_partitions(self, a, b):
        """a = (a \\ b) + (a & b): volumes add up and pieces are disjoint."""
        pieces = a.subtract(b)
        inter = a.intersect(b)
        assert sum(p.volume for p in pieces) + inter.volume == a.volume
        for i, p in enumerate(pieces):
            assert a.contains_box(p)
            assert not p.intersects(b)
            for q in pieces[i + 1:]:
                assert not p.intersects(q)

    @given(boxes(), st.integers(1, 4))
    def test_coarsen_covers_property(self, b, r):
        """The coarsened box, refined back, always covers the original."""
        if b.empty:
            return
        assert b.coarsen(r).refine(r).contains_box(b)

    @given(boxes(), st.integers(0, 3))
    def test_grow_volume(self, b, g):
        if b.empty:
            return
        e = b.extent
        grown = b.grow(g)
        assert grown.volume == (e[0] + 2 * g) * (e[1] + 2 * g) * (e[2] + 2 * g)


def raw_boxes(span=5):
    """Any pair of corners through the public constructor, inverted and
    empty boxes included."""
    corner = st.tuples(*[st.integers(-span, span)] * 3)
    return st.builds(Box, corner, corner)


def assert_same_as_public(box):
    """A box built by the algebra is indistinguishable from one built by
    the coercing constructor: plain-int corners, equal, same hash,
    frozen."""
    assert type(box.lo) is tuple and type(box.hi) is tuple
    assert all(type(v) is int for v in box.lo + box.hi)
    public = Box(list(box.lo), np.array(box.hi))
    assert box == public and public == box
    assert hash(box) == hash(public)
    assert len({box, public}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        box.lo = (0, 0, 0)


class TestCellSetModel:
    """The algebra against brute force: a box is the set of its cells."""

    @given(raw_boxes(), raw_boxes())
    @settings(max_examples=300)
    def test_pairwise_algebra(self, a, b):
        cells_a, cells_b = set(a.cells()), set(b.cells())
        inter = a.intersect(b)
        assert set(inter.cells()) == cells_a & cells_b
        assert a.intersects(b) == bool(cells_a & cells_b)
        assert a.intersects(b) == (not inter.empty)
        # the gather's paste step: the intersection's slices in each frame
        where = a.overlap_slices(b)
        assert where == (None if inter.empty else (inter.slices(b.lo), inter.slices(a.lo)))
        assert a.empty == (not cells_a)
        assert a.volume == len(cells_a)
        assert a.contains_box(b) == (cells_b <= cells_a)
        union = a.bounding_union(b)
        assert cells_a | cells_b <= set(union.cells())
        for built in (inter, union, *a.subtract(b)):
            assert_same_as_public(built)

    @given(raw_boxes(), st.integers(0, 2), st.tuples(*[st.integers(-3, 3)] * 3))
    @settings(max_examples=200)
    def test_grow_shift_slices(self, a, g, offset):
        cells = set(a.cells())
        reach = range(-g, g + 1)
        grown = a.grow(g)
        if not a.empty:
            assert set(grown.cells()) == {
                (i + di, j + dj, k + dk)
                for i, j, k in cells
                for di in reach for dj in reach for dk in reach
            }
            assert set(grown.grow(-g).cells()) == cells
        shifted = a.shift(offset)
        assert set(shifted.cells()) == {
            (i + offset[0], j + offset[1], k + offset[2]) for i, j, k in cells
        }
        # slices address exactly the box's cells inside a covering array
        outer = grown.grow(1)
        arr = np.zeros(outer.extent, dtype=bool)
        arr[a.slices(origin=outer.lo)] = True
        marked = {
            (int(i) + outer.lo[0], int(j) + outer.lo[1], int(k) + outer.lo[2])
            for i, j, k in zip(*np.nonzero(arr))
        }
        assert marked == cells
        assert a.slices(origin=list(outer.lo)) == a.slices(origin=outer.lo)
        for built in (grown, shifted, a.grow((g, 0, 1)), a.coarsen(2), a.refine(2)):
            assert_same_as_public(built)

    def test_public_constructor_still_coerces(self):
        b = Box([0, 1, 2], np.array([3, 4, 5], dtype=np.int32))
        assert b.lo == (0, 1, 2) and b.hi == (3, 4, 5)
        assert all(type(v) is int for v in b.lo + b.hi)
        odd = Box((False, True, 2), (3.0, 4, 5))
        assert odd == b and hash(odd) == hash(b)
        assert all(type(v) is int for v in odd.lo + odd.hi)
        with pytest.raises(GridError):
            Box((0, 0, 0, 0), (1, 1, 1))
