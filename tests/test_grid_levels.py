"""Tests for Patch, Level, Grid, and decomposition."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    Box,
    Grid,
    Level,
    Patch,
    build_single_level_grid,
    build_two_level_grid,
    decompose_level,
    patch_count,
    tile_box,
)
from repro.util.errors import GridError


class TestPatch:
    def test_basic(self):
        p = Patch(0, 0, Box.cube(8))
        assert p.num_cells == 512
        assert p.lo == (0, 0, 0)

    def test_ghost_box(self):
        p = Patch(0, 0, Box.cube(4, lo=(4, 4, 4)))
        g = p.ghost_box(2)
        assert g == Box((2, 2, 2), (10, 10, 10))

    def test_ghost_region_volume(self):
        p = Patch(0, 0, Box.cube(4))
        region = p.ghost_region(1)
        assert sum(b.volume for b in region) == 6 ** 3 - 4 ** 3
        for b in region:
            assert not b.intersects(p.box)

    def test_centroid(self):
        p = Patch(0, 0, Box.cube(4, lo=(2, 2, 2)))
        assert p.centroid_index() == (4.0, 4.0, 4.0)


class TestLevel:
    def make_level(self):
        return Level(0, Box.cube(16), dx=(1 / 16,) * 3)

    def test_add_and_lookup(self):
        lvl = self.make_level()
        p = Patch(5, 0, Box.cube(8))
        lvl.add_patch(p)
        assert lvl.patch(5) is p
        assert lvl.num_patches == 1

    def test_overlap_rejected(self):
        lvl = self.make_level()
        lvl.add_patch(Patch(0, 0, Box.cube(8)))
        with pytest.raises(GridError):
            lvl.add_patch(Patch(1, 0, Box.cube(8, lo=(4, 4, 4))))

    def test_outside_domain_rejected(self):
        lvl = self.make_level()
        with pytest.raises(GridError):
            lvl.add_patch(Patch(0, 0, Box.cube(8, lo=(12, 0, 0))))

    def test_wrong_level_index_rejected(self):
        lvl = self.make_level()
        with pytest.raises(GridError):
            lvl.add_patch(Patch(0, 3, Box.cube(4)))

    def test_duplicate_id_rejected(self):
        lvl = self.make_level()
        lvl.add_patch(Patch(0, 0, Box.cube(4)))
        with pytest.raises(GridError):
            lvl.add_patch(Patch(0, 0, Box.cube(4, lo=(8, 8, 8))))

    def test_cell_position_roundtrip(self):
        lvl = self.make_level()
        for cell in [(0, 0, 0), (7, 3, 15), (15, 15, 15)]:
            pos = lvl.cell_position(cell)
            assert lvl.cell_index(pos) == cell

    def test_cell_centers(self):
        lvl = Level(0, Box.cube(4), dx=(0.25,) * 3)
        x, y, z = lvl.cell_centers()
        assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])

    def test_physical_bounds(self):
        lvl = Level(0, Box.cube(4), dx=(0.25,) * 3)
        assert np.allclose(lvl.physical_lower, 0)
        assert np.allclose(lvl.physical_upper, 1)

    def test_map_to_coarser(self):
        lvl = Level(1, Box.cube(16), dx=(1 / 16,) * 3, refinement_ratio=(4, 4, 4))
        assert lvl.map_cell_to_coarser((7, 8, 15)) == (1, 2, 3)
        assert lvl.map_box_to_coarser(Box((2, 2, 2), (9, 9, 9))) == Box(
            (0, 0, 0), (3, 3, 3)
        )

    def test_containing_patch(self):
        lvl = self.make_level()
        decompose_level(lvl, (8, 8, 8))
        p = lvl.containing_patch((9, 1, 1))
        assert p is not None and p.box.contains_point((9, 1, 1))
        assert lvl.containing_patch((99, 0, 0)) is None


class TestDecomposition:
    def test_tile_exact(self):
        boxes = tile_box(Box.cube(8), (4, 4, 4))
        assert len(boxes) == 8
        assert sum(b.volume for b in boxes) == 512

    def test_tile_indivisible_rejected(self):
        with pytest.raises(GridError):
            tile_box(Box.cube(10), (4, 4, 4))

    def test_tile_remainder(self):
        boxes = tile_box(Box.cube(10), (4, 4, 4), allow_remainder=True)
        assert sum(b.volume for b in boxes) == 1000
        assert len(boxes) == 27

    def test_decompose_level_registers(self):
        lvl = Level(0, Box.cube(16), dx=(1.0,) * 3)
        patches = decompose_level(lvl, (8, 8, 8))
        assert len(patches) == 8
        assert lvl.is_fully_tiled()

    def test_decompose_twice_rejected(self):
        lvl = Level(0, Box.cube(16), dx=(1.0,) * 3)
        decompose_level(lvl, (8, 8, 8))
        with pytest.raises(GridError):
            decompose_level(lvl, (4, 4, 4))

    def test_patch_count(self):
        assert patch_count(256, 16) == 16 ** 3
        assert patch_count(256, 64) == 64
        with pytest.raises(GridError):
            patch_count(256, 48)


class TestGrid:
    def test_two_level_benchmark_grid(self):
        grid = build_two_level_grid(64, refinement_ratio=4, fine_patch_size=16)
        assert grid.num_levels == 2
        coarse, fine = grid.levels
        assert coarse.domain_box == Box.cube(16)
        assert fine.domain_box == Box.cube(64)
        assert fine.num_patches == 64
        assert grid.total_cells == 64 ** 3 + 16 ** 3

    def test_levels_share_physical_domain(self):
        grid = build_two_level_grid(32, refinement_ratio=4)
        for lvl in grid.levels:
            assert np.allclose(lvl.physical_lower, 0)
            assert np.allclose(lvl.physical_upper, 1)

    def test_paper_problem_sizes(self):
        """The MEDIUM (17.04M) and LARGE (136.31M) cell counts from Section V."""
        medium = build_two_level_grid(256, refinement_ratio=4)
        assert medium.total_cells == 256 ** 3 + 64 ** 3 == 17_039_360
        large = build_two_level_grid(512, refinement_ratio=4)
        assert large.total_cells == 512 ** 3 + 128 ** 3 == 136_314_880

    def test_inconsistent_ratio_rejected(self):
        grid = Grid()
        grid.add_level(Box.cube(16), (1 / 16,) * 3)
        with pytest.raises(GridError):
            grid.add_level(Box.cube(50), (1 / 50,) * 3, refinement_ratio=(4, 4, 4))

    def test_inconsistent_dx_rejected(self):
        grid = Grid()
        grid.add_level(Box.cube(16), (1 / 16,) * 3)
        with pytest.raises(GridError):
            # domain refines correctly but dx does not match ratio
            grid.add_level(Box.cube(64), (1 / 128,) * 3, refinement_ratio=(4, 4, 4))

    def test_single_level_grid(self):
        grid = build_single_level_grid(32, patch_size=16)
        assert grid.num_levels == 1
        assert grid.finest_level.num_patches == 8

    def test_empty_grid_guards(self):
        grid = Grid()
        with pytest.raises(GridError):
            _ = grid.finest_level
        with pytest.raises(GridError):
            grid.level(0)

    def test_indivisible_fine_cells_rejected(self):
        with pytest.raises(GridError):
            build_two_level_grid(30, refinement_ratio=4)

    def test_all_patches_spans_levels(self):
        grid = build_two_level_grid(
            32, refinement_ratio=4, fine_patch_size=16, coarse_patch_size=8
        )
        ids = [p.patch_id for p in grid.all_patches()]
        assert len(ids) == len(set(ids))
        assert grid.total_patches == 8 + 1


def linear_scan(level, region):
    """What ``patches_intersecting`` must return: every overlapping
    patch, in ``level.patches`` order."""
    return [p for p in level.patches if p.box.intersects(region)]


def split_tiling(domain, rng, max_pieces):
    """An irregular disjoint tiling: split a random piece along a random
    axis at a random cut until there are ``max_pieces`` (or no room)."""
    pieces = [domain]
    for _ in range(4 * max_pieces):
        if len(pieces) >= max_pieces:
            break
        box = pieces.pop(rng.randrange(len(pieces)))
        axis = rng.randrange(3)
        if box.extent[axis] < 2:
            pieces.append(box)
            continue
        cut = rng.randrange(box.lo[axis] + 1, box.hi[axis])
        lo_hi, hi_lo = list(box.hi), list(box.lo)
        lo_hi[axis] = hi_lo[axis] = cut
        pieces += [Box(box.lo, lo_hi), Box(hi_lo, box.hi)]
    return pieces


def query_regions(level, rng, count=12):
    """Ghost-grown patches, random boxes, and the awkward cases."""
    domain = level.domain_box
    regions = [p.box.grow(rng.randrange(0, 4)) for p in level.patches]
    for _ in range(count):
        lo = [rng.randrange(domain.lo[d] - 3, domain.hi[d] + 3) for d in range(3)]
        regions.append(Box.from_extent(lo, [rng.randrange(0, 9) for _ in range(3)]))
    regions += [
        domain,
        domain.grow(10 ** 9),                   # far larger than the level
        Box.cube(4, lo=(10 ** 6, 0, 0)),        # far outside it
        Box(domain.hi, domain.lo),              # inverted, so empty
    ]
    return regions


class TestPatchIndex:
    @given(st.integers(0, 10 ** 6), st.integers(1, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_linear_scan_on_random_tilings(self, seed, max_pieces, holes):
        rng = random.Random(seed)
        domain = Box.from_extent(
            [rng.randrange(-4, 5) for _ in range(3)],
            [rng.randrange(1, 25) for _ in range(3)],
        )
        boxes = split_tiling(domain, rng, max_pieces)
        if holes:
            boxes = boxes[::2]
        rng.shuffle(boxes)                      # patch order != spatial order
        level = Level(0, domain, (1.0,) * 3)
        for pid, box in enumerate(boxes[: len(boxes) // 2 + 1]):
            level.add_patch(Patch(100 + pid, 0, box))
        for region in query_regions(level, rng):
            assert level.patches_intersecting(region) == linear_scan(level, region)
        # patches registered after the index exists must show up in it
        for pid, box in enumerate(boxes[len(boxes) // 2 + 1:]):
            level._register_patch(Patch(500 + pid, 0, box))
            assert level.patches_intersecting(box) == linear_scan(level, box)
        for region in query_regions(level, rng):
            assert level.patches_intersecting(region) == linear_scan(level, region)

    def test_one_giant_patch_among_small_ones(self):
        """A patch far above the median must not blow the lattice up."""
        level = Level(0, Box.cube(4096), (1.0,) * 3)
        small = [Box.cube(2, lo=(2 * i, 0, 0)) for i in range(9)]
        for pid, box in enumerate(small + [Box((0, 2, 0), (4096, 4096, 4096))]):
            level.add_patch(Patch(pid, 0, box))
        rng = random.Random(7)
        for region in query_regions(level, rng) + [Box.cube(3, lo=(1, 1, 0))]:
            assert level.patches_intersecting(region) == linear_scan(level, region)
        assert sum(map(len, level._patch_index._bins.values())) <= 8 * 10

    def test_regular_tiling_tests_only_the_neighbours(self, monkeypatch):
        lvl = Level(0, Box.cube(64), (1.0,) * 3)
        decompose_level(lvl, (8, 8, 8))            # 512 patches
        centre = next(p for p in lvl.patches if p.box.lo == (24, 24, 24))
        lvl.patches_intersecting(centre.box)       # build the index
        tests = []
        real = Box.intersects
        monkeypatch.setattr(
            Box, "intersects", lambda a, b: tests.append(1) or real(a, b)
        )
        assert len(lvl.patches_intersecting(centre.box.grow(2))) == 27
        assert len(tests) == 27
        del tests[:]
        assert lvl.patches_intersecting(centre.box) == [centre]
        assert len(tests) == 1

    def test_regridded_levels(self):
        """Sparse fine levels, as a tiled regridder leaves them: tiles
        registered through the trusted path, ids offset past the coarse
        level's."""
        blob = [(i, j, k) for i in range(3, 11) for j in range(5, 9)
                for k in range(2, 14)]
        tilings = (
            # two flagged cells far apart, one 2^3 coarse tile each
            ([Box.cube(2, lo=(2, 2, 4)), Box.cube(2, lo=(12, 12, 12))], 4),
            # the 4^3 coarse tiles a blob touches
            ([Box.cube(4, lo=(i, j, k)) for i in (0, 4, 8) for j in (4, 8)
              for k in (0, 4, 8, 12)], 2),
            # one coarse cell a tile
            ([Box.cube(1, lo=cell) for cell in blob], 4),
        )
        rng = random.Random(3)
        for tiles, ratio in tilings:
            grid = Grid()
            decompose_level(grid.add_level(Box.cube(16), (1 / 16,) * 3), (8, 8, 8))
            fine = grid.add_level(Box.cube(16 * ratio), (1 / (16 * ratio),) * 3,
                                  refinement_ratio=(ratio,) * 3)
            for n, tile in enumerate(tiles):
                fine._register_patch(Patch(8 + n, 1, tile.refine(ratio)))
            assert not fine.is_fully_tiled()
            for level in grid.levels:
                for region in query_regions(level, rng):
                    assert level.patches_intersecting(region) == linear_scan(level, region)
