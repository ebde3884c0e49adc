"""Tests for RNG streams and cell types."""

import numpy as np
import pytest

from repro.grid import Box, CellType, domain_cell_types, mark_intrusion
from repro.util import RandomStreams, spawn_stream


class TestRandomStreams:
    def test_deterministic(self):
        a = spawn_stream(42, 1, 2).random(5)
        b = spawn_stream(42, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_keys_independent(self):
        a = spawn_stream(42, 1).random(100)
        b = spawn_stream(42, 2).random(100)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = spawn_stream(1, 0).random(10)
        b = spawn_stream(2, 0).random(10)
        assert not np.array_equal(a, b)

    def test_cache_returns_same_generator(self):
        s = RandomStreams(7)
        assert s.for_patch(3) is s.for_patch(3)
        assert s.for_patch(3) is not s.for_patch(4)

    def test_fresh_replays(self):
        s = RandomStreams(7)
        g = s.for_patch(3)
        first = g.random(4)
        replay = s.fresh(0, 3).random(4)
        assert np.array_equal(first, replay)

    def test_invalidate(self):
        s = RandomStreams(7)
        g = s.for_patch(3)
        s.invalidate()
        assert s.for_patch(3) is not g

    def test_decomposition_independence(self):
        """The same patch id yields the same rays regardless of how many
        other patches exist — the invariant behind reproducible RMCRT."""
        one = RandomStreams(9)
        _ = one.for_patch(0)
        a = one.for_patch(17).random(8)
        other = RandomStreams(9)
        for pid in range(17):
            _ = other.for_patch(pid)
        b = other.for_patch(17).random(8)
        assert np.array_equal(a, b)


class TestCellTypes:
    def test_boundary_layer_layout(self):
        interior = Box.cube(4)
        ct = domain_cell_types(interior)
        assert ct.shape == (6, 6, 6)
        assert ct[0, 0, 0] == CellType.WALL
        assert ct[1, 1, 1] == CellType.FLOW
        assert (ct == CellType.FLOW).sum() == 64

    def test_no_boundary_layer(self):
        ct = domain_cell_types(Box.cube(4), with_boundary_layer=False)
        assert ct.shape == (4, 4, 4)
        assert (ct == CellType.FLOW).all()

    def test_mark_intrusion_clips(self):
        interior = Box.cube(8)
        outer = interior.grow(1)
        ct = domain_cell_types(interior)
        mark_intrusion(ct, Box.cube(4, lo=(6, 6, 6)), origin=outer.lo, domain=interior)
        assert ct[7, 7, 7] == CellType.INTRUSION  # cell (6,6,6)
        # region beyond the domain was clipped, wall ring untouched
        assert (ct[0, :, :] == CellType.WALL).all()

    def test_mark_intrusion_outside_domain_noop(self):
        interior = Box.cube(4)
        outer = interior.grow(1)
        ct = domain_cell_types(interior)
        before = ct.copy()
        mark_intrusion(ct, Box.cube(2, lo=(50, 50, 50)), origin=outer.lo, domain=interior)
        assert np.array_equal(ct, before)


class TestRNGStateRoundTrip:
    """get_state/set_state: the checkpointing contract of util.rng."""

    def test_mid_sequence_round_trip(self):
        s = RandomStreams(11)
        s.for_patch(0).random(17)          # advance stream 0 mid-buffer
        s.for_patch(3, purpose=2).random(5)
        snap = s.get_state()
        expect0 = s.for_patch(0).random(8)
        expect3 = s.for_patch(3, purpose=2).random(8)

        other = RandomStreams(11)
        other.for_patch(0).random(2)       # different position, overwritten
        other.set_state(snap)
        assert np.array_equal(other.for_patch(0).random(8), expect0)
        assert np.array_equal(other.for_patch(3, purpose=2).random(8), expect3)

    def test_state_is_json_serializable(self):
        import json

        s = RandomStreams(5)
        s.for_patch(1).random(3)
        doc = json.dumps(s.get_state())
        other = RandomStreams(5)
        other.set_state(json.loads(doc))
        assert np.array_equal(other.for_patch(1).random(4), s.for_patch(1).random(4))

    def test_seed_mismatch_rejected(self):
        from repro.util.errors import ReproError

        snap = RandomStreams(1).get_state()
        with pytest.raises(ReproError):
            RandomStreams(2).set_state(snap)

    def test_untouched_streams_not_in_state(self):
        s = RandomStreams(3)
        s.for_patch(0)
        assert list(s.get_state()["streams"]) == ["0,0"]
