"""Tests for space-filling curves and the SFC load balancer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box, Level, LoadBalancer, decompose_level, round_robin_assign
from repro.grid.patch import Patch
from repro.grid.sfc import (
    curve_order,
    hilbert_decode,
    hilbert_encode,
    morton_decode,
    morton_encode,
)


class TestMorton:
    def test_origin(self):
        assert morton_encode(0, 0, 0) == 0

    def test_unit_axes(self):
        assert morton_encode(1, 0, 0) == 1
        assert morton_encode(0, 1, 0) == 2
        assert morton_encode(0, 0, 1) == 4

    def test_vectorized(self):
        x = np.arange(16)
        keys = morton_encode(x, x * 0, x * 0)
        assert keys.shape == (16,)

    @given(st.integers(0, 2 ** 20), st.integers(0, 2 ** 20), st.integers(0, 2 ** 20))
    def test_roundtrip(self, x, y, z):
        k = morton_encode(x, y, z)
        assert morton_decode(k) == (x, y, z)

    def test_bijective_on_cube(self):
        n = 8
        g = np.mgrid[0:n, 0:n, 0:n].reshape(3, -1)
        keys = morton_encode(g[0], g[1], g[2])
        assert len(np.unique(keys)) == n ** 3


class TestHilbert:
    @given(st.integers(0, 2 ** 12 - 1), st.integers(1, 4))
    def test_roundtrip(self, h, bits):
        h = h % (1 << (3 * bits))
        assert hilbert_encode(hilbert_decode(h, bits), bits) == h

    def test_bijective_on_cube(self):
        bits = 2
        n = 1 << bits
        seen = {hilbert_encode((x, y, z), bits)
                for x in range(n) for y in range(n) for z in range(n)}
        assert seen == set(range(n ** 3))

    def test_unit_step_adjacency(self):
        """Consecutive Hilbert indices are face-adjacent cells."""
        bits = 3
        n = 1 << bits
        prev = hilbert_decode(0, bits)
        for h in range(1, n ** 3):
            cur = hilbert_decode(h, bits)
            dist = sum(abs(a - b) for a, b in zip(prev, cur))
            assert dist == 1, f"jump of {dist} at h={h}"
            prev = cur


class TestCurveOrder:
    def test_is_permutation(self):
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 32, size=(50, 3))
        for curve in ("morton", "hilbert"):
            order = curve_order(pts, curve=curve)
            assert sorted(order) == list(range(50))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            curve_order(np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError):
            curve_order(np.array([[-1, 0, 0]]))
        with pytest.raises(ValueError):
            curve_order(np.zeros((1, 3), dtype=int), curve="peano")


def tiled_level(domain=32, patch=8):
    lvl = Level(0, Box.cube(domain), dx=(1.0 / domain,) * 3)
    return lvl, decompose_level(lvl, (patch,) * 3)


class TestLoadBalancer:
    def test_every_rank_gets_work(self):
        _, patches = tiled_level()  # 64 patches
        for nranks in (1, 2, 7, 16, 64):
            lb = LoadBalancer(nranks)
            assignment = lb.assign(patches)
            assert set(assignment.values()) == set(range(nranks))

    def test_balance_quality(self):
        _, patches = tiled_level()
        lb = LoadBalancer(8)
        assignment = lb.assign(patches)
        assert lb.imbalance(patches, assignment) <= 1.10

    def test_uniform_costs_split_evenly(self):
        _, patches = tiled_level()  # 64 equal patches
        lb = LoadBalancer(4)
        counts = lb.rank_costs(patches, lb.assign(patches))
        assert np.allclose(counts, counts[0])

    def test_locality_beats_round_robin(self):
        """SFC chunks are spatially compact: mean intra-rank centroid
        spread is smaller than round-robin's."""
        _, patches = tiled_level(domain=32, patch=4)  # 512 patches
        lb = LoadBalancer(8)
        sfc = lb.assign(patches)
        rr = round_robin_assign(patches, 8)

        def mean_spread(assignment):
            spreads = []
            for rank in range(8):
                pts = np.array(
                    [p.centroid_index() for p in patches if assignment[p.patch_id] == rank]
                )
                spreads.append(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
            return np.mean(spreads)

        assert mean_spread(sfc) < mean_spread(rr)

    def test_weighted_costs(self):
        _, patches = tiled_level(domain=16, patch=8)  # 8 patches
        # make one patch 10x as expensive
        heavy = patches[0].patch_id
        lb = LoadBalancer(
            2, cost_fn=lambda p: 10.0 if p.patch_id == heavy else 1.0
        )
        assignment = lb.assign(patches)
        costs = lb.rank_costs(patches, assignment)
        # heavy rank should not also hoard the light patches
        assert costs.max() <= 12.0

    def test_more_ranks_than_patches(self):
        _, patches = tiled_level(domain=16, patch=8)  # 8 patches
        lb = LoadBalancer(16)
        assignment = lb.assign(patches)
        assert len(assignment) == 8
        assert len(set(assignment.values())) == 8  # 8 ranks busy, 8 idle

    def test_empty_patch_list(self):
        assert LoadBalancer(4).assign([]) == {}

    def test_bad_rank_count(self):
        from repro.util.errors import GridError

        with pytest.raises(GridError):
            LoadBalancer(0)


def reference_assign(patches, num_ranks, curve):
    """``LoadBalancer.assign`` as it was written over NumPy (centroids
    through ``curve_order``, costs in an array), kept as the oracle for
    the plain-int version."""
    if not patches:
        return {}
    pts = np.array([[int(c) for c in p.centroid_index()] for p in patches], dtype=np.int64)
    pts -= pts.min(axis=0)
    ordered = [patches[i] for i in curve_order(pts, curve=curve)]
    n = len(ordered)
    costs = np.array([float(p.num_cells) for p in ordered])
    total = float(costs.sum())
    assignment, rank, acc = {}, 0, 0.0
    for i, patch in enumerate(ordered):
        must_advance = n - i == num_ranks - rank and acc > 0
        target = total * (rank + 1) / num_ranks
        if rank < num_ranks - 1 and (must_advance or acc + 0.5 * costs[i] >= target):
            rank += 1
        assignment[patch.patch_id] = rank
        acc += costs[i]
    return assignment


random_patches = st.lists(
    st.tuples(
        st.tuples(*[st.integers(-40, 40)] * 3),   # lo
        st.tuples(*[st.integers(1, 12)] * 3),     # extent
    ),
    min_size=0, max_size=40,
).map(lambda boxes: [
    Patch(patch_id=k, level_index=0, box=Box.from_extent(lo, extent))
    for k, (lo, extent) in enumerate(boxes)
])


@settings(max_examples=150, deadline=None)
@given(patches=random_patches, num_ranks=st.integers(1, 9),
       curve=st.sampled_from(["morton", "hilbert"]))
def test_assign_equals_the_numpy_reference(patches, num_ranks, curve):
    """Random (overlapping, unevenly sized, negatively placed) patch sets:
    the plain-int assignment is the one the NumPy code gave."""
    lb = LoadBalancer(num_ranks, curve=curve)
    assert lb.assign(patches) == reference_assign(patches, num_ranks, curve)
    ordered = [p.patch_id for p in lb.order_patches(patches)]
    if patches:
        pts = np.array([[int(c) for c in p.centroid_index()] for p in patches])
        expected = curve_order(pts - pts.min(axis=0), curve=curve)
        assert ordered == [patches[i].patch_id for i in expected]
