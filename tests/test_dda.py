"""Tests for the batched DDA marching engine.

The invariants: exact agreement with the scalar reference, exact path
lengths, correct accumulation physics (attenuation algebra), ROI
parking, reflections, and termination guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box, CellType
from repro.core import (
    RayBatch,
    RayStatus,
    isotropic_directions,
    march,
    march_single_ray,
    trace_rays_scalar,
)
from repro.core.dda import _launch_state
from repro.perf import MetricsRegistry, set_metrics
from repro.radiation import RadiativeProperties
from repro.util.errors import ReproError
from tests.level_fields import level_fields, whole_level


def stacked(level, windows):
    """Windows of ``level`` (see :func:`crop`), laid out as a launch
    marches them."""
    return level_fields(level.interior, level.dx, level.anchor, windows)


def make_fields(n=8, kappa=1.0, st4=1.0, wall_t4=0.0, wall_emis=1.0, dx=None, kappa_field=None):
    box = Box.cube(n)
    abskg = kappa_field if kappa_field is not None else np.full(box.extent, kappa)
    props = RadiativeProperties.from_fields(
        box,
        abskg=abskg,
        sigma_t4=np.full(box.extent, st4),
        wall_emissivity=wall_emis,
    )
    if wall_t4 != 0.0:
        # set wall ring emissive power directly (sigma*T^4 units)
        ring = props.sigma_t4
        mask = props.cell_type != CellType.FLOW
        ring[mask] = wall_t4
    h = dx if dx is not None else 1.0 / n
    return whole_level(props, (h,) * 3)


def center_origin(fields, n):
    return np.tile(np.asarray(fields.cell_center(np.array([n // 2] * 3))), (1, 1))


def assert_matches_scalar(fields, origins, dirs, atol=1e-15, **kw):
    """march == march_single_ray, ray for ray: status, sum_i, tau, exit_pos."""
    batch = RayBatch.fresh(origins.copy(), dirs.copy())
    march(fields=fields, batch=batch, **kw)
    for r in range(batch.n):
        s, tau, status, exit_pos = march_single_ray(fields, origins[r], dirs[r], **kw)
        assert batch.status[r] == status, r
        assert abs(batch.sum_i[r] - s) <= atol, r
        assert np.isclose(batch.tau[r], tau, rtol=1e-13, atol=0.0), r
        if status == RayStatus.LEFT_ROI:
            np.testing.assert_allclose(batch.exit_pos[r], exit_pos, rtol=0, atol=1e-12)
    return batch


def tie_directions():
    """Every direction with components in {-1, 0, 1} (normalised): each
    step of a ray from a cell centre ties two or three axes, or crosses
    one axis with the others at inf."""
    grid = np.array(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3)).reshape(3, -1).T
    grid = grid[np.abs(grid).sum(axis=1) > 0]
    return grid / np.linalg.norm(grid, axis=1, keepdims=True)


class TestAnalyticSingleRay:
    def test_axis_ray_homogeneous_medium(self):
        """A +x axis ray from the domain centre: sumI has a closed form.

        Through a homogeneous medium (kappa, Ib = st4/pi) to a cold
        black wall at distance L: sumI = Ib * (1 - exp(-kappa L)).
        """
        n, kappa = 8, 2.0
        fields = make_fields(n, kappa=kappa)
        origin = fields.cell_center(np.array([n // 2, n // 2, n // 2]))
        L = 1.0 - origin[0]
        batch = RayBatch.fresh(origin[None, :], np.array([[1.0, 0.0, 0.0]]))
        march(fields=fields, batch=batch, threshold=1e-12)
        expected = (1.0 / np.pi) * (1.0 - np.exp(-kappa * L))
        assert np.isclose(batch.sum_i[0], expected, rtol=1e-12)
        assert batch.status[0] == RayStatus.WALL_HIT

    def test_diagonal_ray_path_length(self):
        """Total optical depth equals kappa times the chord length."""
        n, kappa = 8, 3.0
        fields = make_fields(n, kappa=kappa)
        origin = np.array([[0.3, 0.4, 0.2]])
        d = np.array([[1.0, 1.0, 1.0]]) / np.sqrt(3)
        batch = RayBatch.fresh(origin, d)
        march(fields=fields, batch=batch, threshold=1e-14)
        # chord: exits when any coordinate reaches 1; x first? all equal rate,
        # limiting coordinate is max start -> y reaches 1 after 0.6*sqrt(3)
        t_exit = (1.0 - 0.4) * np.sqrt(3)
        # after wall entry the march stops; tau accumulated over the chord
        assert np.isclose(batch.tau[0], kappa * t_exit, rtol=1e-10)

    def test_hot_wall_contribution(self):
        """Cold medium (no emission), hot black wall: sumI = Ib_wall * exp(-tau)."""
        n, kappa = 6, 1.5
        fields = make_fields(n, kappa=kappa, st4=0.0, wall_t4=2.0)
        origin = fields.cell_center(np.array([3, 3, 3]))
        batch = RayBatch.fresh(origin[None, :], np.array([[0.0, 0.0, -1.0]]))
        march(fields=fields, batch=batch, threshold=1e-14)
        L = origin[2]  # distance to z=0 wall
        expected = (2.0 / np.pi) * np.exp(-kappa * L)
        assert np.isclose(batch.sum_i[0], expected, rtol=1e-12)

    def test_threshold_extinction(self):
        """A huge optical depth kills the ray before it reaches a wall."""
        fields = make_fields(8, kappa=500.0)
        origin = fields.cell_center(np.array([4, 4, 4]))
        batch = RayBatch.fresh(origin[None, :], np.array([[1.0, 0.0, 0.0]]))
        march(fields=fields, batch=batch, threshold=1e-3)
        assert batch.status[0] == RayStatus.EXTINCT
        # it absorbed essentially all the emission along the way
        assert np.isclose(batch.sum_i[0], 1.0 / np.pi, rtol=1e-2)

    def test_zero_direction_component(self):
        fields = make_fields(8)
        origin = fields.cell_center(np.array([4, 4, 4]))
        batch = RayBatch.fresh(origin[None, :], np.array([[0.0, 1.0, 0.0]]))
        march(fields=fields, batch=batch)
        assert batch.status[0] == RayStatus.WALL_HIT


class TestDifferential:
    """Vectorized batch kernel == scalar reference, ray for ray."""

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
    def test_homogeneous(self, kappa):
        fields = make_fields(8, kappa=kappa)
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 8, size=(64, 3))
        origins = np.asarray(fields.cell_center(cells))
        dirs = isotropic_directions(rng, 64)
        scalar = trace_rays_scalar(fields, origins, dirs)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-15)

    def test_heterogeneous_medium(self):
        rng = np.random.default_rng(13)
        kf = rng.random((8, 8, 8)) * 5
        fields = make_fields(8, kappa_field=kf)
        origins = np.asarray(fields.cell_center(rng.integers(0, 8, size=(128, 3))))
        dirs = isotropic_directions(rng, 128)
        scalar = trace_rays_scalar(fields, origins, dirs)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-15)

    def test_with_reflections(self):
        fields = make_fields(6, kappa=2.0, wall_emis=0.5)
        rng = np.random.default_rng(17)
        origins = np.asarray(fields.cell_center(rng.integers(0, 6, size=(64, 3))))
        dirs = isotropic_directions(rng, 64)
        scalar = trace_rays_scalar(fields, origins, dirs, reflections=True)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, reflections=True)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-14)

    def test_roi_parking_matches_scalar(self):
        fields = make_fields(8, kappa=1.0)
        roi = Box((2, 2, 2), (6, 6, 6))
        rng = np.random.default_rng(19)
        cells = rng.integers(3, 5, size=(32, 3))
        origins = np.asarray(fields.cell_center(cells))
        dirs = isotropic_directions(rng, 32)
        batch = assert_matches_scalar(fields, origins, dirs, roi=roi)
        assert (batch.status == RayStatus.LEFT_ROI).any()


class TestROI:
    def test_all_rays_park_with_tiny_roi(self):
        fields = make_fields(8, kappa=0.5)
        roi = Box((3, 3, 3), (5, 5, 5))
        origins = np.asarray(fields.cell_center(np.full((16, 3), 4)))
        dirs = isotropic_directions(np.random.default_rng(0), 16)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, roi=roi)
        assert (batch.status == RayStatus.LEFT_ROI).all()
        # exit positions sit on the ROI boundary shell
        lo = np.array([3, 3, 3]) * fields.dx[0]
        hi = np.array([5, 5, 5]) * fields.dx[0]
        eps = 1e-9
        on_shell = (
            (np.abs(batch.exit_pos - lo) < eps) | (np.abs(batch.exit_pos - hi) < eps)
        ).any(axis=1)
        assert on_shell.all()

    def test_handoff_continuation_equals_uninterrupted(self):
        """Park at an ROI then resume on the SAME level == never parking."""
        fields = make_fields(8, kappa=1.3)
        roi = Box((2, 2, 2), (6, 6, 6))
        rng = np.random.default_rng(23)
        origins = np.asarray(fields.cell_center(rng.integers(3, 5, size=(64, 3))))
        dirs = isotropic_directions(rng, 64)

        uninterrupted = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields, batch=uninterrupted)

        two_phase = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields, batch=two_phase, roi=roi)
        march(fields=fields, batch=two_phase, from_handoff=True)

        np.testing.assert_allclose(two_phase.sum_i, uninterrupted.sum_i, atol=1e-9)
        assert not (two_phase.status == RayStatus.LEFT_ROI).any()

    def test_roi_outside_ring_rejected(self):
        fields = make_fields(4)
        with pytest.raises(ReproError):
            march(
                fields=fields,
                batch=RayBatch.fresh(np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0, 0]])),
                roi=Box((-5, -5, -5), (10, 10, 10)),
            )


class TestReflections:
    def test_perfect_mirror_extinction(self):
        """emissivity ~ 0 walls: rays bounce until the threshold kills them,
        and in a hot medium they absorb the full local emission."""
        fields = make_fields(6, kappa=0.5, wall_emis=1e-12)
        origins = np.asarray(fields.cell_center(np.full((8, 3), 3)))
        dirs = isotropic_directions(np.random.default_rng(1), 8)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, reflections=True, threshold=1e-3)
        assert (batch.status == RayStatus.EXTINCT).all()
        # infinite reflections in a hot medium: sumI -> Ib = 1/pi
        assert np.allclose(batch.sum_i, 1 / np.pi, rtol=5e-3)

    def test_reflective_walls_increase_sum(self):
        fields_black = make_fields(6, kappa=0.5, wall_emis=1.0)
        fields_refl = make_fields(6, kappa=0.5, wall_emis=0.3)
        origins = np.asarray(fields_black.cell_center(np.full((32, 3), 3)))
        dirs = isotropic_directions(np.random.default_rng(2), 32)
        b1 = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields_black, batch=b1)
        b2 = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields_refl, batch=b2, reflections=True)
        assert b2.sum_i.mean() > b1.sum_i.mean()


class TestBatchMechanics:
    def test_fresh_validates_shapes(self):
        with pytest.raises(ReproError):
            RayBatch.fresh(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ReproError):
            RayBatch.fresh(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_empty_batch(self):
        fields = make_fields(4)
        batch = RayBatch.fresh(np.zeros((0, 3)), np.zeros((0, 3)))
        march(fields=fields, batch=batch)
        assert batch.n == 0

    def test_max_steps_guard(self):
        fields = make_fields(8, kappa=0.0)  # no absorption: never extinct
        # with kappa=0 rays still terminate at walls, so force failure
        # with an absurd cap
        origins = np.asarray(fields.cell_center(np.array([[4, 4, 4]])))
        dirs = np.array([[1.0, 0.0, 0.0]])
        batch = RayBatch.fresh(origins, dirs)
        with pytest.raises(ReproError):
            march(fields=fields, batch=batch, max_steps=1)

    def test_statuses_partition(self):
        fields = make_fields(8, kappa=1.0)
        rng = np.random.default_rng(3)
        origins = np.asarray(fields.cell_center(rng.integers(0, 8, size=(256, 3))))
        dirs = isotropic_directions(rng, 256)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        assert not (batch.status == RayStatus.ALIVE).any()
        assert set(np.unique(batch.status)) <= {
            int(RayStatus.WALL_HIT),
            int(RayStatus.EXTINCT),
        }

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_property_sum_i_bounded(self, seed):
        """For st4 = 1 everywhere (walls cold), sumI in [0, 1/pi]."""
        fields = make_fields(6, kappa=2.0)
        rng = np.random.default_rng(seed)
        origins = np.asarray(fields.cell_center(rng.integers(0, 6, size=(16, 3))))
        dirs = isotropic_directions(rng, 16)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        assert (batch.sum_i >= 0).all()
        assert (batch.sum_i <= 1 / np.pi + 1e-12).all()


class TestLayoutEdges:
    """What the SoA-by-axis layout makes delicate: exact ties between
    axes, axes a ray never crosses (tdelta stored as 0), launches that
    begin in a wall, and the cell-class encoding of ROI and wall."""

    @pytest.mark.parametrize("reflections", [False, True])
    def test_tie_heavy_launch(self, reflections):
        rng = np.random.default_rng(29)
        kf = rng.random((8, 8, 8)) * 3
        fields = make_fields(8, kappa_field=kf, wall_emis=0.6)
        dirs = tie_directions()
        cells = rng.integers(0, 8, size=(dirs.shape[0], 3))
        origins = np.asarray(fields.cell_center(cells))
        assert_matches_scalar(fields, origins, dirs, reflections=reflections)

    @pytest.mark.parametrize("reflections", [False, True])
    def test_axis_aligned_rays_in_a_generic_batch(self, reflections):
        rng = np.random.default_rng(31)
        fields = make_fields(6, kappa=0.7, wall_emis=0.4)
        axis = np.vstack([np.eye(3), -np.eye(3)])
        dirs = np.vstack([isotropic_directions(rng, 26), axis])[rng.permutation(32)]
        origins = (rng.integers(0, 6, size=(32, 3)) + rng.random((32, 3))) / 6
        batch = assert_matches_scalar(fields, origins, dirs, reflections=reflections)
        assert np.isfinite(batch.sum_i).all() and np.isfinite(batch.tau).all()

    @pytest.mark.parametrize("reflections", [False, True])
    @pytest.mark.parametrize("from_handoff", [False, True])
    def test_still_axes(self, from_handoff, reflections):
        """Directions with exact 0.0 and -0.0 components: the set-up gives
        a still axis tmax inf, tdelta 0 and no index step (its rows are
        computed for every lane, then patched), and every lane matches the
        oracle, fresh or handed off, some starting on a cell face."""
        rng = np.random.default_rng(61)
        fields = make_fields(6, kappa=0.9, wall_emis=0.4)
        n = 48
        dirs = isotropic_directions(rng, n)
        for r in range(n):  # one or two still axes a ray, half of them -0.0
            dirs[r, rng.choice(3, size=1 + r % 2, replace=False)] = (0.0, -0.0)[r // 2 % 2]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        zero = dirs == 0.0
        assert np.signbit(dirs[zero]).any() and not np.signbit(dirs[zero]).all()
        starts = (rng.integers(0, 6, size=(n, 3)) + rng.random((n, 3))) / 6
        starts[::3, 0] = 3 / 6  # on a face
        tau0 = rng.random(n)
        batch = RayBatch.fresh(np.zeros((n, 3)) if from_handoff else starts.copy(), dirs.copy())
        if from_handoff:
            batch.status[:] = RayStatus.LEFT_ROI
            batch.exit_pos[:] = starts
            batch.tau[:] = tau0
            batch.sum_i[:] = 0.1

        fstate, istate, _, _ = _launch_state(
            fields, None, batch, np.arange(n), batch.exit_pos if from_handoff else starts,
            from_handoff,
        )
        tmax, tdelta, fstep = fstate[6:9], fstate[9:12], istate[2:5]
        still = zero.T
        assert (tmax[still] == np.inf).all() and (tdelta[still] == 0.0).all()
        assert (fstep[still] == 0).all()
        assert np.isfinite(tmax[~still]).all() and (tdelta[~still] > 0.0).all()

        march(fields=fields, batch=batch, reflections=reflections, from_handoff=from_handoff)
        for r in range(n):
            s, tau, status, _ = march_single_ray(
                fields, starts[r], dirs[r], reflections=reflections, from_handoff=from_handoff,
                **(dict(tau0=tau0[r], sum_i0=0.1) if from_handoff else {}),
            )
            assert batch.status[r] == status, r
            assert abs(batch.sum_i[r] - s) <= 1e-15, r
            assert np.isclose(batch.tau[r], tau, rtol=1e-13, atol=0.0), r

    def test_handoff_launch_inside_a_wall_cell(self):
        """Rays parked exactly on the domain face, heading out, land in
        the wall ring on re-launch and are absorbed before the march."""
        fields = make_fields(4, kappa=1.0, st4=1.0, wall_t4=3.0, wall_emis=0.8)
        exit_pos = np.array([[1.0, 0.4, 0.6], [0.3, 0.0, 0.6], [0.55, 0.4, 0.6]])
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.0, 0.8]])
        tau0 = np.array([0.5, 1.5, 0.25])
        batch = RayBatch.fresh(np.zeros((3, 3)), dirs)
        batch.status[:] = RayStatus.LEFT_ROI
        batch.exit_pos[:] = exit_pos
        batch.tau[:] = tau0
        batch.sum_i[:] = 0.1
        march(fields=fields, batch=batch, from_handoff=True)
        for r in range(3):
            s, tau, status, _ = march_single_ray(
                fields, exit_pos[r], dirs[r], tau0=tau0[r], sum_i0=0.1, from_handoff=True
            )
            assert batch.status[r] == status == RayStatus.WALL_HIT
            assert abs(batch.sum_i[r] - s) <= 1e-15
            assert np.isclose(batch.tau[r], tau, rtol=1e-13, atol=0.0)
        # the two absorbed at launch kept their optical depth
        np.testing.assert_array_equal(batch.tau[:2], tau0[:2])
        np.testing.assert_allclose(
            batch.sum_i[:2], 0.1 + 0.8 * 3.0 / np.pi * np.exp(-tau0[:2]), rtol=1e-15
        )

    @pytest.mark.parametrize("reflections", [False, True])
    def test_roi_face_on_the_wall_ring(self, reflections):
        """An ROI that keeps the wall ring on its low faces: rays end at
        the wall there and park on the open faces."""
        fields = make_fields(8, kappa=0.8, wall_emis=0.5)
        roi = Box((-1, -1, -1), (4, 4, 4))
        rng = np.random.default_rng(37)
        origins = (rng.integers(0, 4, size=(96, 3)) + rng.random((96, 3))) / 8
        dirs = isotropic_directions(rng, 96)
        batch = assert_matches_scalar(
            fields, origins, dirs, roi=roi, reflections=reflections
        )
        ends = set(np.unique(batch.status))
        assert int(RayStatus.LEFT_ROI) in ends
        assert reflections or int(RayStatus.WALL_HIT) in ends

    @given(
        st.integers(4, 10), st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_scalar(self, n, seed, intrusions, use_roi, reflections):
        rng = np.random.default_rng(seed)
        box = Box.cube(n)
        cell_type = np.zeros(box.extent, dtype=np.int8)
        abskg = rng.random(box.extent) * 4
        if intrusions:
            solid = rng.random(box.extent) < 0.08
            cell_type[solid] = CellType.INTRUSION
            abskg[solid] = 0.2 + 0.8 * rng.random(int(solid.sum()))
        props = RadiativeProperties.from_fields(
            box, abskg=abskg, sigma_t4=rng.random(box.extent),
            wall_temperature=60.0, wall_emissivity=0.3 + 0.7 * rng.random(),
            cell_type=cell_type,
        )
        fields = whole_level(props, (1.0 / n,) * 3)
        roi = None
        if use_roi:
            lo = rng.integers(-1, n, size=3)
            hi = rng.integers(lo + 1, n + 2)  # anywhere up to the ring's far face
            roi = Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
        launch_box = box if roi is None else roi.intersect(box)
        cells = np.argwhere(cell_type == CellType.FLOW)
        cells = cells[np.all((cells >= launch_box.lo) & (cells < launch_box.hi), axis=1)]
        if cells.shape[0] == 0:
            return
        cells = cells[rng.integers(0, cells.shape[0], size=24)]
        origins = (cells + rng.random((24, 3))) / n
        dirs = isotropic_directions(rng, 24)
        assert_matches_scalar(fields, origins, dirs, roi=roi, reflections=reflections)


def crop(fields, window, scale=1.0):
    """``fields`` (a whole level) cropped to ``window``, its medium
    scaled, as ``(window, abskg, sigma_t4, cell_type)``: a window holds its
    own task's data, which no other window's lanes may read."""
    sl = window.slices(origin=fields.ring_box.lo)
    abskg, sigma_t4, cell_type = (a[sl] for a in fields.views(0))
    return (
        window, np.where(cell_type == CellType.FLOW, scale, 1.0) * abskg,
        sigma_t4.copy(), cell_type.copy(),
    )


RESULT_ROWS = ("sum_i", "tau", "status", "exit_pos", "directions")


class TestFusedLaunch:
    """One march over K windows is K separate marches, bit for bit."""

    @given(
        st.integers(1, 5), st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_equals_separate_marches(self, k, seed, intrusions, reflections, split):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 10))
        box = Box.cube(n)
        cell_type = np.zeros(box.extent, dtype=np.int8)
        abskg = rng.random(box.extent) * 4
        if intrusions:
            solid = rng.random(box.extent) < 0.08
            cell_type[solid] = CellType.INTRUSION
            abskg[solid] = 0.2 + 0.8 * rng.random(int(solid.sum()))
        props = RadiativeProperties.from_fields(
            box, abskg=abskg, sigma_t4=rng.random(box.extent),
            wall_temperature=60.0, wall_emissivity=0.3 + 0.7 * rng.random(),
            cell_type=cell_type,
        )
        level = whole_level(props, (1.0 / n,) * 3)
        ring = level.ring_box
        windows, rois, origins, dirs = [], [], [], []
        for w in range(k):
            lo = rng.integers(-1, n, size=3)
            hi = rng.integers(lo + 1, n + 2)  # anywhere up to the ring's far face
            roi = Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
            cells = np.argwhere(cell_type == CellType.FLOW)
            cells = cells[np.all((cells >= roi.lo) & (cells < roi.hi), axis=1)]
            if cells.shape[0] == 0:
                continue
            # the tightest window, or (every third) a roomier one
            window = roi.grow(1 if w % 3 else 2).intersect(ring)
            windows.append(crop(level, window, scale=1.0 + 0.25 * w))
            rois.append(roi)
            count = int(rng.integers(1, 30))
            cells = cells[rng.integers(0, cells.shape[0], size=count)]
            origins.append((cells + rng.random((count, 3))) / n)
            dirs.append(isotropic_directions(rng, count))
        if not windows:
            return
        separate = [
            march(
                fields=stacked(level, [w]), batch=RayBatch.fresh(o, d.copy()), roi=r,
                reflections=reflections,
            )
            for w, r, o, d in zip(windows, rois, origins, dirs)
        ]
        expected = {
            row: np.concatenate([getattr(b, row) for b in separate]) for row in RESULT_ROWS
        }
        window_of = np.repeat(np.arange(len(windows)), [o.shape[0] for o in origins])
        origins, dirs = np.concatenate(origins), np.concatenate(dirs)
        # one launch, or two with the chunk boundary inside a window
        total = window_of.size
        cuts = [0, total // 2, total] if split and total > 1 else [0, total]
        chunks = [
            march(
                fields=stacked(level, windows),
                batch=RayBatch.fresh(origins[a:b], dirs[a:b].copy()),
                roi=rois, reflections=reflections, window_of=window_of[a:b],
            )
            for a, b in zip(cuts, cuts[1:])
        ]
        for row in RESULT_ROWS:
            fused = np.concatenate([getattr(b, row) for b in chunks])
            np.testing.assert_array_equal(fused, expected[row], err_msg=row)

    @pytest.mark.parametrize("small_first", [True, False])
    def test_max_steps_defaults_from_the_largest_window(self, small_first):
        """A ray that bounces ~35 times across a 12-cell vacuum needs more
        steps than a 3^3 window's default allows, fewer than the level's."""
        fields = make_fields(12, kappa=0.0, wall_emis=0.23)
        small_roi = Box((0, 0, 0), (1, 1, 1))
        small = crop(fields, small_roi.grow(1))
        order = [0, 1] if small_first else [1, 0]
        windows = [[small, crop(fields, fields.ring_box)][i] for i in order]
        rois = [[small_roi, fields.ring_box][i] for i in order]
        origins = np.asarray(fields.cell_center(np.array([[0, 0, 0], [6, 6, 6]])))
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        # ray 0 marches the small window, ray 1 the whole level
        window_of = np.array([order.index(0), order.index(1)])
        batch = RayBatch.fresh(origins, dirs)
        march(
            fields=stacked(fields, windows), batch=batch, roi=rois, reflections=True,
            window_of=window_of,
        )
        assert batch.status[0] == RayStatus.LEFT_ROI
        lone = RayBatch.fresh(origins[1:], dirs[1:].copy())
        march(fields=fields, batch=lone, reflections=True)
        assert batch.status[1] == lone.status[0] == RayStatus.EXTINCT
        assert batch.sum_i[1] == lone.sum_i[0] and batch.tau[1] == lone.tau[0]
        with pytest.raises(ReproError, match="still alive"):
            march(
                fields=fields, batch=RayBatch.fresh(origins[1:], dirs[1:].copy()),
                reflections=True, max_steps=16 * (9 + 3),
            )

    def test_misdeclared_windows_rejected(self):
        fields = make_fields(8)
        roi = Box((2, 2, 2), (5, 5, 5))
        batch = RayBatch.fresh(center_origin(fields, 8), np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ReproError, match="cells around"):
            # no room to park
            march(fields=stacked(fields, [crop(fields, roi)]), batch=batch, roi=roi)
        with pytest.raises(ReproError, match="cells around"):
            # a window needs its roi
            march(fields=stacked(fields, [crop(fields, roi.grow(1))]), batch=batch)
        two = stacked(fields, [crop(fields, roi.grow(1)), crop(fields, roi.grow(2))])
        with pytest.raises(ReproError, match="rois"):
            march(fields=two, batch=batch, roi=[roi], window_of=np.zeros(1, dtype=int))
        with pytest.raises(ReproError, match="window_of"):
            march(fields=two, batch=batch, roi=[roi, roi])


class TestReflectionsAcrossTheROI:
    """A ray that reflects inside the ROI and then leaves it: its exit
    position and its heading both carry the reflection."""

    def test_handoff_continuation_equals_uninterrupted(self):
        fields = make_fields(8, kappa=0.4, wall_emis=0.3)
        roi = Box((-1, -1, -1), (5, 9, 9))  # wall ring on five faces, open at x = 5
        rng = np.random.default_rng(41)
        origins = (rng.integers(0, 4, size=(64, 3)) + rng.random((64, 3))) / 8
        dirs = isotropic_directions(rng, 64)

        uninterrupted = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields, batch=uninterrupted, reflections=True)

        two_phase = RayBatch.fresh(origins, dirs.copy())
        march(fields=fields, batch=two_phase, roi=roi, reflections=True)
        parked = two_phase.parked()
        bounced = parked[(two_phase.directions[parked] != dirs[parked]).any(axis=1)]
        assert bounced.size > 0  # the case under test occurs
        # parked on the open face, inside the domain on the other axes
        np.testing.assert_allclose(two_phase.exit_pos[parked, 0], 5 / 8, atol=1e-12)
        assert (np.abs(two_phase.exit_pos[parked, 1:] - 0.5) <= 0.5 + 1e-12).all()
        np.testing.assert_array_equal(two_phase.origins, origins)  # caller's arrays untouched
        march(fields=fields, batch=two_phase, from_handoff=True, reflections=True)

        np.testing.assert_allclose(two_phase.sum_i, uninterrupted.sum_i, atol=1e-9)
        np.testing.assert_allclose(two_phase.tau, uninterrupted.tau, rtol=1e-9)
        np.testing.assert_array_equal(two_phase.status, uninterrupted.status)

    def test_two_level_reflective_solve(self):
        """Regression: this solve raised IndexError (the coarse re-launch
        started outside the ring); it must also agree with the
        single-level reflective solve within the Monte Carlo band."""
        from repro.core import MultiLevelRMCRT, SingleLevelRMCRT
        from repro.radiation import BurnsChristonBenchmark

        bench = BurnsChristonBenchmark(16)
        grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=8)
        level = grid.finest_level
        props = RadiativeProperties.from_fields(
            level.domain_box, abskg=bench.abskg_field(level),
            sigma_t4=np.ones(level.domain_box.extent), wall_emissivity=0.5,
        )
        crashed = MultiLevelRMCRT(rays_per_cell=3, halo=2, seed=3, reflections=True)
        assert np.isfinite(crashed.solve(grid, props).divq).all()

        rays = 16
        multi = MultiLevelRMCRT(rays_per_cell=rays, halo=2, seed=3, reflections=True)
        single = SingleLevelRMCRT(rays_per_cell=rays, seed=4, reflections=True)
        x, multi_line = bench.centerline(multi.solve(grid, props).divq)
        _, single_line = bench.centerline(
            single.solve(bench.single_level_grid(), props).divq
        )
        # per-ray intensity lies in [0, 1/pi]: sigma(del.q) <= 2 kappa / sqrt(N)
        # with N = 4 cells x rays; the two solves are independent
        kappa = bench.c * (1.0 - 2.0 * np.abs(x - 0.5)) + bench.k0
        band = 3.0 * np.sqrt(2.0) * 2.0 * kappa / np.sqrt(4.0 * rays)
        assert (np.abs(multi_line - single_line) <= band).all()


class TestKernelCounters:
    def test_exact_counts(self):
        fields = make_fields(4, kappa=0.0)  # vacuum: every ray reaches the wall
        names = ("calls", "steps", "ray_steps", "lanes_launched", "compactions", "rows_stepped")

        def launch(x_cells, **kw):
            cells = np.array([[x, 1, 1] for x in x_cells])
            batch = RayBatch.fresh(
                np.asarray(fields.cell_center(cells)), np.tile([-1.0, 0.0, 0.0], (len(x_cells), 1))
            )
            return march(fields=fields, batch=batch, **kw)

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            # -x rays from x-cells 0, 1 and 3 enter the wall on their 1st,
            # 2nd and 4th step: 4 steps with 3, 2, 1, 1 lanes live; the
            # 1st lane's row is parked through step 2 and dropped with the
            # 2nd's before step 3, when 1 of 3 rows is live: 3, 3, 1, 1 rows
            launch([0, 1, 3])
            counts = {n: registry.value(f"dda.{n}", handoff="0") for n in names}
            assert counts == {
                "calls": 1, "steps": 4, "ray_steps": 7, "lanes_launched": 3, "compactions": 1,
                "rows_stepped": 8,
            }
            # ROI x >= 2: the rays from x-cells 2 and 3 park on their 1st and
            # 2nd step (the 1st row dropped before step 2: 1 of 2 rows live,
            # 2 + 1 rows), then both take 2 more steps on re-launch
            batch = launch([2, 3], roi=Box((2, 0, 0), (4, 4, 4)))
            assert (batch.status == RayStatus.LEFT_ROI).all()
            march(fields=fields, batch=batch, from_handoff=True)
            assert (batch.status == RayStatus.WALL_HIT).all()
        finally:
            set_metrics(previous)
        counts = {n: registry.value(f"dda.{n}", handoff="0") for n in names}
        assert counts == {
            "calls": 2, "steps": 6, "ray_steps": 10, "lanes_launched": 5, "compactions": 2,
            "rows_stepped": 11,
        }
        counts = {n: registry.value(f"dda.{n}", handoff="1") for n in names}
        assert counts == {
            "calls": 1, "steps": 2, "ray_steps": 4, "lanes_launched": 2, "compactions": 0,
            "rows_stepped": 4,
        }


def counted_march(**kw):
    """``march(**kw)`` under a fresh registry; the launch's dda.* counters."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        march(**kw)
    finally:
        set_metrics(previous)
    handoff = "1" if kw.get("from_handoff") else "0"
    names = ("steps", "ray_steps", "lanes_launched", "compactions", "rows_stepped")
    return {n: int(registry.value(f"dda.{n}", handoff=handoff)) for n in names}


def park_schedule(lifetimes):
    """The compaction rule replayed on the lanes' lifetimes (steps each
    marches live; 0 if absorbed at launch): the launch's compactions,
    the most steps a parked row marched before a compaction dropped it,
    and the rows the steps carried."""
    kept = np.ones(lifetimes.size, dtype=bool)
    step = compactions = carried = rows = 0
    while (lifetimes > step).any():
        step += 1
        live = lifetimes >= step
        if 2 * np.count_nonzero(live) <= np.count_nonzero(kept):
            dropped = kept & ~live
            carried = max(carried, int((step - 1 - lifetimes[dropped]).max()))
            kept &= live
            compactions += 1
        rows += np.count_nonzero(kept)
    return compactions, carried, rows


class TestParking:
    """A finished lane's row stays in the launch, parked on the sink cell,
    until half the rows are parked. Each case is built so that a parked
    row marches at least two steps before a compaction drops it; the
    counters must match the rule replayed on the lanes' lone lifetimes,
    and the answers the oracle's."""

    def check(self, launch, n):
        """``launch(rows)`` gives march's arguments for those lanes alone."""
        lifetimes = np.array([counted_march(**launch([r]))["steps"] for r in range(n)])
        kw = launch(np.arange(n))
        counts = counted_march(**kw)
        compactions, carried, rows = park_schedule(lifetimes)
        assert carried >= 2
        assert counts == {
            "steps": lifetimes.max(), "ray_steps": lifetimes.sum(),
            "lanes_launched": n, "compactions": compactions, "rows_stepped": rows,
        }
        return kw["batch"]

    def test_mirror_path_matches_scalar(self):
        """ROI + reflections: rays that bounce, then park."""
        fields = make_fields(8, kappa=0.4, wall_emis=0.3)
        roi = Box((-1, -1, -1), (5, 9, 9))  # wall ring on five faces, open at x = 5
        rng = np.random.default_rng(43)
        origins = (rng.integers(0, 4, size=(48, 3)) + rng.random((48, 3))) / 8
        dirs = isotropic_directions(rng, 48)
        kw = dict(roi=roi, reflections=True)
        batch = self.check(
            lambda rows: dict(
                fields=fields, batch=RayBatch.fresh(origins[rows], dirs[rows].copy()), **kw
            ),
            48,
        )
        parked = batch.parked()
        assert (batch.directions[parked] != dirs[parked]).any()  # bounced, then parked
        assert_matches_scalar(fields, origins, dirs, **kw)  # the same 48-lane launch

    @staticmethod
    def handoff(fields, exit_pos, dirs, tau0):
        def launch(rows):
            batch = RayBatch.fresh(np.zeros((len(rows), 3)), dirs[rows])
            batch.status[:] = RayStatus.LEFT_ROI
            batch.exit_pos[:] = exit_pos[rows]
            batch.tau[:] = tau0[rows]
            batch.sum_i[:] = 0.1
            return dict(fields=fields, batch=batch, from_handoff=True, reflections=True)

        return launch

    def assert_handoff_matches_scalar(self, fields, batch, exit_pos, dirs, tau0):
        for r in range(batch.n):
            s, tau, status, _ = march_single_ray(
                fields, exit_pos[r], dirs[r], tau0=tau0[r], sum_i0=0.1,
                from_handoff=True, reflections=True,
            )
            assert batch.status[r] == status, r
            assert abs(batch.sum_i[r] - s) <= 1e-15, r
            assert np.isclose(batch.tau[r], tau, rtol=1e-13, atol=0.0), r

    def test_handoff_launch(self):
        """Parked rays re-launched from their exit positions."""
        fields = make_fields(8, kappa=0.5, wall_emis=0.6)
        rng = np.random.default_rng(47)
        exit_pos = rng.random((40, 3))
        dirs = isotropic_directions(rng, 40)
        tau0 = rng.random(40)
        launch = self.handoff(fields, exit_pos, dirs, tau0)
        batch = self.check(launch, 40)
        self.assert_handoff_matches_scalar(fields, batch, exit_pos, dirs, tau0)

    def test_lane_absorbed_at_launch(self):
        """Lanes parked on the domain face, heading out, are absorbed and
        parked before the first step; the rest bounce on past them for
        long enough that any optical depth on the sink would extinguish
        a parked row a second time."""
        fields = make_fields(6, kappa=0.05, st4=1.0, wall_t4=3.0, wall_emis=0.3)
        rng = np.random.default_rng(53)
        inside = (rng.integers(1, 5, size=(10, 3)) + rng.random((10, 3))) / 6
        on_face = np.array([[1.0, 0.4, 0.6], [0.3, 0.0, 0.6], [0.5, 0.5, 0.0]])
        out = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.6, -0.8]])
        exit_pos = np.vstack([on_face, inside])
        dirs = np.vstack([out, isotropic_directions(rng, 10)])
        tau0 = rng.random(13)
        launch = self.handoff(fields, exit_pos, dirs, tau0)
        batch = self.check(launch, 13)
        self.assert_handoff_matches_scalar(fields, batch, exit_pos, dirs, tau0)
        np.testing.assert_array_equal(batch.tau[:3], tau0[:3])  # kept their optical depth

    def test_threshold_above_one_rejected(self):
        """Every row would read as extinct, a parked one (tau = 0) too."""
        fields = make_fields(4)
        batch = RayBatch.fresh(center_origin(fields, 4), np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ReproError, match="threshold"):
            march(fields=fields, batch=batch, threshold=1.5)

    def test_fused_launch_equals_separate_marches(self):
        """K windows in one launch: a lane parked in one window marches
        on the sink while the others' lanes still step."""
        level = make_fields(9, kappa=0.7, wall_emis=0.5)
        rng = np.random.default_rng(59)
        rois = [Box((0, 0, 0), (3, 9, 9)), Box((2, 2, 2), (7, 7, 7)), Box((-1, -1, -1), (10, 4, 10))]
        windows = [crop(level, roi.grow(1).intersect(level.ring_box), 1.0 + 0.5 * w)
                   for w, roi in enumerate(rois)]
        origins, dirs, window_of = [], [], []
        for w, roi in enumerate(rois):
            inner = roi.intersect(level.interior)
            cells = rng.integers(inner.lo, inner.hi, size=(12, 3))
            origins.append((cells + rng.random((12, 3))) / 9)
            dirs.append(isotropic_directions(rng, 12))
            window_of += [w] * 12
        origins, dirs, window_of = np.vstack(origins), np.vstack(dirs), np.array(window_of)
        batch = self.check(
            lambda rows: dict(
                fields=stacked(level, windows),
                batch=RayBatch.fresh(origins[rows], dirs[rows].copy()),
                roi=rois, reflections=True, window_of=window_of[rows],
            ),
            36,
        )
        for w, roi in enumerate(rois):
            lanes = window_of == w
            alone = RayBatch.fresh(origins[lanes], dirs[lanes].copy())
            march(fields=stacked(level, [windows[w]]), batch=alone, roi=roi, reflections=True)
            for row in RESULT_ROWS:
                np.testing.assert_array_equal(getattr(batch, row)[lanes], getattr(alone, row))


class TestStepScratch:
    """A step allocates nothing a lane: every temporary goes into scratch
    rows allocated once a launch, beside the state."""

    #: march's tracemalloc high-water mark a lane on the scene below: the
    #: state (12 float and 5 int rows, 136 B), the scratch (a float row
    #: and an int64 row holding the 5 int8 flag rows, 16 B), and the
    #: stack's emission and wall rows, derived on its first march, and
    #: NumPy's cast buffers spread over the lanes (~8 B)
    PEAK_BYTES_PER_LANE = 160

    def test_march_peak_per_lane_is_pinned(self):
        """16384 lanes from the middle of a clear 16^3 level, stopped by
        ``max_steps`` before any can reach a wall: the peak is the set-up
        and six steps with every lane in flight and none retired. A
        temporary row put back into the step (8 B a lane for a float or
        int64 row, at least 4 of them above the cast buffers the step
        already holds) moves the peak past the tolerance."""
        import tracemalloc

        from repro.core import generate_patch_rays

        interior = Box.cube(16)
        props = RadiativeProperties.from_fields(
            interior, abskg=np.zeros(interior.extent), sigma_t4=np.ones(interior.extent)
        )
        fields = whole_level(props, (1 / 16,) * 3)
        origins, dirs = generate_patch_rays(
            fields, [Box((6, 6, 6), (10, 10, 10))], 256, [np.random.default_rng(0)]
        )
        batch = RayBatch.fresh(origins, dirs)
        assert batch.n == 16384
        tracemalloc.start()  # the level is laid out before the launch, as a solver does
        try:
            with pytest.raises(ReproError, match="still alive after 6 DDA steps"):
                march(fields=fields, batch=batch, max_steps=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_lane = peak / batch.n
        assert abs(per_lane - self.PEAK_BYTES_PER_LANE) < 2, per_lane
