"""Tests for labels, variables, the host DW, and the GPU DW level DB."""

import numpy as np
import pytest

from repro.grid import Box, Level, decompose_level
from repro.dw import (
    CCVariable,
    DataWarehouse,
    DataWarehouseManager,
    GPUDataWarehouse,
    ReductionVariable,
    VarKind,
    VarLabel,
    cc,
    per_level,
    reduction,
)
from repro.perf.metrics import MetricsRegistry
from repro.util.errors import DataWarehouseError


class TestLabels:
    def test_kinds(self):
        assert cc("x").kind is VarKind.CELL_CENTERED
        assert per_level("x").kind is VarKind.PER_LEVEL
        assert reduction("x").kind is VarKind.REDUCTION

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            VarLabel("")

    def test_hashable(self):
        assert len({cc("a"), cc("a"), cc("b")}) == 2


class TestCCVariable:
    def test_zero_init(self):
        v = CCVariable(Box.cube(4))
        assert v.data.shape == (4, 4, 4)
        assert v.nbytes == 64 * 8

    def test_shape_mismatch(self):
        with pytest.raises(DataWarehouseError):
            CCVariable(Box.cube(4), data=np.zeros((3, 3, 3)))

    def test_empty_box_rejected(self):
        with pytest.raises(DataWarehouseError):
            CCVariable(Box((0, 0, 0), (0, 1, 1)))

    def test_view_offset(self):
        v = CCVariable(Box.cube(4, lo=(10, 10, 10)))
        region = Box.cube(2, lo=(11, 11, 11))
        v.view(region)[...] = 7
        assert v.data[1, 1, 1] == 7
        assert v.data[0, 0, 0] == 0

    def test_view_outside_rejected(self):
        v = CCVariable(Box.cube(4))
        with pytest.raises(DataWarehouseError):
            v.view(Box.cube(2, lo=(3, 3, 3)))

    def test_copy_region_from(self):
        a = CCVariable(Box.cube(4), data=np.ones((4, 4, 4)))
        b = CCVariable(Box.cube(4))
        b.copy_region_from(a, Box.cube(2, lo=(1, 1, 1)))
        assert b.data.sum() == 8


class TestReductionVariable:
    def test_ops(self):
        assert ReductionVariable(2.0, "sum").combine(ReductionVariable(3.0, "sum")).value == 5.0
        assert ReductionVariable(2.0, "min").combine(ReductionVariable(3.0, "min")).value == 2.0
        assert ReductionVariable(2.0, "max").combine(ReductionVariable(3.0, "max")).value == 3.0

    def test_bad_op(self):
        with pytest.raises(DataWarehouseError):
            ReductionVariable(0.0, "mean")

    def test_mixed_ops_rejected(self):
        with pytest.raises(DataWarehouseError):
            ReductionVariable(1.0, "sum").combine(ReductionVariable(1.0, "min"))


class TestHostDW:
    def setup_method(self):
        self.level = Level(0, Box.cube(8), dx=(1 / 8,) * 3)
        self.patches = decompose_level(self.level, (4, 4, 4))
        self.dw = DataWarehouse()
        self.phi = cc("phi")

    def test_put_get(self):
        v = CCVariable(self.patches[0].box)
        self.dw.put(self.phi, 0, v)
        assert self.dw.get(self.phi, 0) is v
        assert self.dw.exists(self.phi, 0)
        assert not self.dw.exists(self.phi, 1)

    def test_double_compute_rejected(self):
        self.dw.put(self.phi, 0, CCVariable(self.patches[0].box))
        with pytest.raises(DataWarehouseError):
            self.dw.put(self.phi, 0, CCVariable(self.patches[0].box))

    def test_missing_get(self):
        with pytest.raises(DataWarehouseError):
            self.dw.get(self.phi, 3)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DataWarehouseError):
            self.dw.put(per_level("x"), 0, CCVariable(self.patches[0].box))
        with pytest.raises(DataWarehouseError):
            self.dw.put_level(cc("x"), 0, np.zeros(3))

    def test_get_region_assembles_across_patches(self):
        for p in self.patches:
            data = np.full(p.box.extent, float(p.patch_id))
            self.dw.put(self.phi, p.patch_id, CCVariable(p.box, data))
        region = Box((2, 2, 2), (6, 6, 6))  # spans all 8 patches
        out = self.dw.get_region(self.phi, self.level, region)
        assert out.shape == (4, 4, 4)
        assert out[0, 0, 0] == self.patches[0].patch_id
        assert len(np.unique(out)) == 8

    def test_get_region_missing_raises(self):
        self.dw.put(self.phi, 0, CCVariable(self.patches[0].box))
        with pytest.raises(DataWarehouseError):
            self.dw.get_region(self.phi, self.level, Box.cube(8))

    def test_get_region_default_fills_wall_ring(self):
        for p in self.patches:
            self.dw.put(self.phi, p.patch_id, CCVariable(p.box, np.ones(p.box.extent)))
        out = self.dw.get_region(self.phi, self.level, Box.cube(8).grow(1), default=-5.0)
        assert out[0, 0, 0] == -5.0
        assert out[1, 1, 1] == 1.0

    def test_foreign_pieces_cover_remote_data(self):
        # only patch 0 is local; a foreign piece covers the one remote
        # cell the region touches
        self.dw.put(self.phi, 0, CCVariable(self.patches[0].box, np.ones((4, 4, 4))))
        foreign_box = Box((4, 3, 3), (5, 4, 4))
        self.dw.add_foreign(
            self.phi, 4, CCVariable(foreign_box, np.full((1, 1, 1), 9.0))
        )
        region = Box((3, 3, 3), (5, 4, 4))
        out = self.dw.get_region(self.phi, self.level, region)
        assert out[0, 0, 0] == 1.0
        assert out[1, 0, 0] == 9.0

    def put_all(self, label, fill=1.0):
        for p in self.patches:
            self.dw.put(label, p.patch_id, CCVariable(p.box, np.full(p.box.extent, fill)))

    def patch_at(self, lo):
        return next(p for p in self.patches if p.box.lo == lo)

    def test_nan_values_are_data_not_holes(self):
        """Coverage is tracked beside the data: a NaN a task computed is
        returned as it is, neither reported missing nor overwritten by
        ``default`` (which the GPU staging path passes as 0.0)."""
        self.put_all(self.phi)
        self.dw.get(self.phi, self.patch_at((4, 4, 4)).patch_id).data[1, 2, 3] = np.nan
        out = self.dw.get_region(self.phi, self.level, Box.cube(8))
        assert np.isnan(out[5, 6, 7]) and np.isnan(out).sum() == 1
        ring = self.dw.get_region(self.phi, self.level, Box.cube(8).grow(1), default=0.0)
        assert np.isnan(ring[6, 7, 8]) and np.isnan(ring).sum() == 1
        assert ring[0, 0, 0] == 0.0 and (ring == 0.0).sum() == 10 ** 3 - 8 ** 3

    def test_overlapping_foreign_pieces_cover_together(self):
        """Two consumers on a rank each get their own piece of a remote
        patch; the pieces overlap and a third region may need both."""
        near, far = self.patch_at((0, 0, 0)), self.patch_at((4, 0, 0))
        self.dw.put(self.phi, near.patch_id, CCVariable(near.box, np.ones((4, 4, 4))))
        for box in (Box((4, 0, 0), (6, 3, 4)), Box((4, 2, 0), (6, 4, 4))):
            self.dw.add_foreign(self.phi, far.patch_id, CCVariable(box, np.full(box.extent, 9.0)))
        region = Box((2, 0, 0), (6, 4, 4))
        out = self.dw.get_region(self.phi, self.level, region)
        assert (out[:2] == 1.0).all() and (out[2:] == 9.0).all()
        with pytest.raises(DataWarehouseError, match=r"phi: 16 of 80 cells"):
            self.dw.get_region(self.phi, self.level, Box((2, 0, 0), (7, 4, 4)))

    def test_piece_counters_are_exact(self):
        """``pieces_tested``: variables and pieces examined;
        ``pieces_pasted``: those copied into the region."""
        near, far = self.patch_at((0, 0, 0)), self.patch_at((4, 0, 0))
        self.dw.put(self.phi, near.patch_id, CCVariable(near.box))
        for box in (
            Box((4, 0, 0), (5, 2, 4)),      # too small for the region below
            Box((4, 0, 0), (6, 4, 4)),      # covers the remote patch's share
            Box((4, 0, 0), (8, 4, 4)),      # never reached
        ):
            self.dw.add_foreign(self.phi, far.patch_id, CCVariable(box))
        stats = self.dw.stats
        self.dw.get_region(self.phi, self.level, Box((3, 0, 0), (6, 4, 4)))
        assert (stats.pieces_tested, stats.pieces_pasted) == (1 + 2, 1 + 1)
        # no single piece holds x = 7..8 of the far patch except the
        # third, found last: three more tests, one paste (plus the local)
        self.dw.get_region(self.phi, self.level, Box((3, 0, 0), (8, 4, 4)))
        assert (stats.pieces_tested, stats.pieces_pasted) == (3 + 1 + 3, 2 + 1 + 1)
        # nothing covers the far patch's share alone: every overlapping
        # piece is pasted, the hole is filled by the default
        lone = DataWarehouse()
        lone.add_foreign(self.phi, far.patch_id, CCVariable(Box((4, 0, 0), (5, 2, 4))))
        lone.add_foreign(self.phi, far.patch_id, CCVariable(Box((4, 2, 0), (5, 4, 4))))
        lone.add_foreign(self.phi, far.patch_id, CCVariable(Box((7, 0, 0), (8, 4, 4))))
        out = lone.get_region(self.phi, self.level, Box((4, 0, 0), (6, 4, 4)), default=-1.0)
        assert (lone.stats.pieces_tested, lone.stats.pieces_pasted) == (3, 2)
        assert (out[0] == 0.0).all() and (out[1] == -1.0).all()

        registry = MetricsRegistry()
        self.dw.publish_metrics(registry, rank=0)
        assert registry.value("dw.pieces_tested", rank=0) == 7
        assert registry.value("dw.pieces_pasted", rank=0) == 4
        assert registry.value("dw.region_assemblies", rank=0) == 2

    def test_gather_cost_ignores_unrelated_labels_and_patches(self):
        """The scaling guard, as a count: what a gather examines depends
        on the patches its region meets, not on what else is stored."""
        near, far = self.patch_at((0, 0, 0)), self.patch_at((4, 0, 0))
        region = Box((2, 0, 0), (6, 4, 4))

        def gather_cost():
            before = self.dw.stats.pieces_tested
            self.dw.get_region(self.phi, self.level, region)
            return self.dw.stats.pieces_tested - before

        self.dw.put(self.phi, near.patch_id, CCVariable(near.box))
        self.dw.add_foreign(self.phi, far.patch_id, CCVariable(Box((4, 0, 0), (6, 4, 4))))
        assert gather_cost() == 2
        for name in ("psi", "chi", "abskg"):
            self.put_all(cc(name))
            for p in self.patches:
                for _ in range(25):
                    self.dw.add_foreign(cc(name), p.patch_id, CCVariable(p.box))
        for p in self.patches:      # phi pieces of patches the region misses
            if not p.box.intersects(region):
                for _ in range(25):
                    self.dw.add_foreign(self.phi, p.patch_id, CCVariable(p.box))
        assert gather_cost() == 2

    def test_get_regions_is_get_region_label_by_label(self):
        """One walk for several labels: the same arrays, counters and
        errors as a ``get_region`` per label —
        with NaN values as data, a default per label, overlapping
        foreign pieces, and labels whose pieces of one patch have
        *different* boxes (so no placement may leak between them)."""
        near, far = self.patch_at((0, 0, 0)), self.patch_at((4, 0, 0))
        psi, chi = cc("psi"), cc("chi")
        rng = np.random.default_rng(0)

        def filled(box):
            return CCVariable(box, rng.random(box.extent))

        for label in (self.phi, psi, chi):      # local: one box for every label
            self.dw.put(label, near.patch_id, filled(near.box))
        self.dw.get(psi, near.patch_id).data[3, 1, 2] = np.nan
        whole = Box((4, 0, 0), (6, 4, 4))
        low, high = Box((4, 0, 0), (6, 3, 4)), Box((4, 2, 0), (6, 4, 4))
        for label, boxes in ((self.phi, [low, high]), (psi, [low, whole]), (chi, [high])):
            for box in boxes:
                self.dw.add_foreign(label, far.patch_id, filled(box))
        labels, defaults = [self.phi, psi, chi], [None, -1.0, -2.0]

        def spent(gather):
            before = self.dw.stats.as_dict()
            arrays = gather()
            return arrays, {k: v - before[k] for k, v in self.dw.stats.as_dict().items()}

        for region in (Box((2, 0, 0), (6, 4, 4)), Box((3, 1, 1), (5, 3, 3))):
            one_by_one, cost = spent(lambda: [
                self.dw.get_region(label, self.level, region, default=default)
                for label, default in zip(labels, defaults)
            ])
            together, cost_together = spent(
                lambda: self.dw.get_regions(labels, self.level, region, defaults)
            )
            assert cost_together == cost
            for got, expected in zip(together, one_by_one):
                np.testing.assert_array_equal(got, expected)
        _, psi_out, chi_out = self.dw.get_regions(
            labels, self.level, Box((2, 0, 0), (6, 4, 4)), defaults
        )
        assert np.isnan(psi_out).sum() == 1 and not (psi_out == -1.0).any()
        # chi's one piece leaves the far patch's y < 2 to its default;
        # phi's and psi's pieces of that patch never land in chi
        assert (chi_out[2:, :2] == -2.0).all() and (chi_out == -2.0).sum() == 2 * 2 * 4
        # a hole is reported for the label it is in, the one without a default
        with pytest.raises(DataWarehouseError, match=r"^phi: \d+ of 216 cells"):
            self.dw.get_regions(labels, self.level, near.box.grow(1), defaults)

    def test_get_regions_into_pastes_into_the_callers_views(self):
        """The walk writes the region's cells of the arrays it is handed
        — views into larger ones, an int8 one cast on the way in — and
        no cell outside; the same values as a fresh ``get_regions``."""
        self.put_all(self.phi, 3.0)
        psi = cc("psi")
        self.put_all(psi, 1.0)
        region = Box((2, 2, 2), (6, 6, 6)).grow(1)          # holes: none
        big = np.full((8, 8, 8), -7.0)
        small = np.full((8, 8, 8), -1, dtype=np.int8)
        sl = region.slices(origin=(0, 0, 0))
        self.dw.get_regions_into([self.phi, psi], self.level, region, [big[sl], small[sl]])
        fresh = self.dw.get_regions([self.phi, psi], self.level, region)
        np.testing.assert_array_equal(big[sl], fresh[0])
        np.testing.assert_array_equal(small[sl], fresh[1].astype(np.int8))
        assert (big == -7.0).sum() == (small == -1).sum() == 8 ** 3 - 6 ** 3
        with pytest.raises(DataWarehouseError, match="need as many arrays of shape"):
            self.dw.get_regions_into([self.phi], self.level, region, [big])

    def test_regions_are_read_once_over_their_bounding_box(self):
        """A launch's regions in one walk: only the patches meeting one
        of them, each piece pasted once over the bounding box; each
        region holds what a read of it alone holds; a hole between the
        regions needs no default, a hole inside one raises naming it."""
        near, far = self.patch_at((0, 0, 0)), self.patch_at((4, 4, 4))
        rng = np.random.default_rng(0)
        for p in (near, far):
            self.dw.put(self.phi, p.patch_id, CCVariable(p.box, rng.random(p.box.extent)))
        regions = [Box((0, 0, 0), (3, 3, 3)), Box((1, 1, 1), (4, 4, 4)), Box((5, 5, 5), (8, 8, 8))]
        block = Box.cube(8)
        before = self.dw.stats.as_dict()
        [out] = self.dw.get_regions([self.phi], self.level, block, regions=regions)
        spent = {k: v - before[k] for k, v in self.dw.stats.as_dict().items()}
        assert (spent["region_assemblies"], spent["pieces_tested"], spent["pieces_pasted"]) == (1, 2, 2)
        for box in regions:
            np.testing.assert_array_equal(
                out[box.slices()], self.dw.get_region(self.phi, self.level, box)
            )
        straddle = Box((3, 3, 3), (6, 6, 6))     # 1 + 8 of its 27 cells have data
        with pytest.raises(DataWarehouseError, match=r"^phi: 18 of 27 cells of"):
            self.dw.get_regions([self.phi], self.level, block, regions=[regions[0], straddle])
        [filled] = self.dw.get_regions([self.phi], self.level, block, [-1.0], [straddle])
        assert (filled == -1.0).sum() == 8 ** 3 - 2 * 4 ** 3
        with pytest.raises(DataWarehouseError, match="not inside"):
            self.dw.get_regions([self.phi], self.level, regions[0], regions=[straddle])

    def test_coverage_counts_a_piece_past_its_own_share(self):
        """Coverage is counted per patch share; a piece reaching into
        another patch's share falls short of the count, and the exact
        mask then finds the region covered after all — no hole, no
        default written."""
        far = self.patch_at((4, 0, 0))
        self.dw.add_foreign(self.phi, far.patch_id, CCVariable(
            Box((3, 0, 0), (6, 4, 4)), np.full((3, 4, 4), 9.0)))
        region = Box((3, 0, 0), (6, 4, 4))
        out = self.dw.get_region(self.phi, self.level, region, default=-1.0)
        assert (out == 9.0).all()

    def test_level_vars(self):
        lbl = per_level("coarse_abskg")
        arr = np.ones((4, 4, 4))
        self.dw.put_level(lbl, 0, arr)
        assert self.dw.get_level(lbl, 0) is arr
        assert self.dw.has_level(lbl, 0)
        with pytest.raises(DataWarehouseError):
            self.dw.put_level(lbl, 0, arr)
        with pytest.raises(DataWarehouseError):
            self.dw.get_level(lbl, 1)

    def test_reductions_combine(self):
        lbl = reduction("max_temp")
        self.dw.put_reduction(lbl, ReductionVariable(5.0, "max"))
        self.dw.put_reduction(lbl, ReductionVariable(9.0, "max"))
        self.dw.put_reduction(lbl, ReductionVariable(7.0, "max"))
        assert self.dw.get_reduction(lbl).value == 9.0

    def test_nbytes_and_names(self):
        self.dw.put(self.phi, 0, CCVariable(self.patches[0].box))
        self.dw.put_level(per_level("lv"), 0, np.zeros(10))
        assert self.dw.nbytes == 64 * 8 + 80
        assert self.dw.variable_names() == ["lv", "phi"]


class TestDWManager:
    def test_advance_swaps(self):
        mgr = DataWarehouseManager()
        first = mgr.new_dw
        assert mgr.old_dw is None
        mgr.advance()
        assert mgr.old_dw is first
        assert mgr.new_dw is not first
        assert mgr.new_dw.generation == 1


class TestGPUDW:
    def make_var(self, n=8):
        return CCVariable(Box.cube(n))

    def test_upload_accounting(self):
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 6)
        v = self.make_var()
        gpu.upload_patch_var(cc("phi"), 0, v)
        assert gpu.usage == v.nbytes
        assert gpu.stats.h2d_bytes == v.nbytes
        assert gpu.stats.h2d_transfers == 1

    def test_reupload_free(self):
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 6)
        v = self.make_var()
        gpu.upload_patch_var(cc("phi"), 0, v)
        gpu.upload_patch_var(cc("phi"), 0, v)
        assert gpu.stats.h2d_transfers == 1

    def test_capacity_enforced(self):
        gpu = GPUDataWarehouse(capacity_bytes=1000)
        with pytest.raises(DataWarehouseError):
            gpu.upload_patch_var(cc("phi"), 0, self.make_var(8))  # 4 KiB

    def test_release_returns_bytes(self):
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 6)
        gpu.upload_patch_var(cc("phi"), 0, self.make_var())
        gpu.release_patch_var(cc("phi"), 0)
        assert gpu.usage == 0
        with pytest.raises(DataWarehouseError):
            gpu.release_patch_var(cc("phi"), 0)

    def test_download_counts(self):
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 6)
        v = self.make_var()
        gpu.upload_patch_var(cc("divq"), 0, v)
        gpu.download_patch_var(cc("divq"), 0)
        assert gpu.stats.d2h_bytes == v.nbytes

    def test_level_db_shares_single_copy(self):
        """The paper's fix: N tasks sharing one coarse-level copy pay
        one transfer and one allocation."""
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 6, use_level_db=True)
        lbl = per_level("coarse_abskg")
        data = np.ones((16, 16, 16))
        for task in range(10):
            gpu.upload_level_var(lbl, 0, data, task_id=task)
        assert gpu.stats.h2d_transfers == 1
        assert gpu.usage == data.nbytes
        assert gpu.get_level_var(lbl, 0) is data

    def test_legacy_mode_copies_per_task(self):
        """Without the level DB each task pays its own copy — 10 tasks
        cost 10x the memory and traffic (what blew the 6 GB budget)."""
        gpu = GPUDataWarehouse(capacity_bytes=10 ** 7, use_level_db=False)
        lbl = per_level("coarse_abskg")
        data = np.ones((16, 16, 16))
        for task in range(10):
            gpu.upload_level_var(lbl, 0, data, task_id=task)
        assert gpu.stats.h2d_transfers == 10
        assert gpu.usage == 10 * data.nbytes
        gpu.release_task(3)
        assert gpu.usage == 9 * data.nbytes

    def test_legacy_mode_ooms_where_level_db_fits(self):
        """The crux of contribution (ii) at miniature scale."""
        data = np.ones((32, 32, 32))  # 256 KiB
        budget = int(2.5 * data.nbytes)
        lbl = per_level("coarse")
        ok = GPUDataWarehouse(capacity_bytes=budget, use_level_db=True)
        for task in range(8):
            ok.upload_level_var(lbl, 0, data, task_id=task)
        legacy = GPUDataWarehouse(capacity_bytes=budget, use_level_db=False)
        with pytest.raises(DataWarehouseError):
            for task in range(8):
                legacy.upload_level_var(lbl, 0, data, task_id=task)

    def test_legacy_requires_task_id(self):
        gpu = GPUDataWarehouse(use_level_db=False)
        with pytest.raises(DataWarehouseError):
            gpu.upload_level_var(per_level("x"), 0, np.zeros(4))

    def test_level_var_kind_enforced(self):
        gpu = GPUDataWarehouse()
        with pytest.raises(DataWarehouseError):
            gpu.upload_level_var(cc("x"), 0, np.zeros(4))

    def test_clear_level_db(self):
        gpu = GPUDataWarehouse()
        gpu.upload_level_var(per_level("x"), 0, np.zeros(100))
        gpu.clear_level_db()
        assert gpu.usage == 0
        assert gpu.peak_usage == 800

    def test_resident_summary(self):
        gpu = GPUDataWarehouse()
        gpu.upload_patch_var(cc("phi"), 0, self.make_var())
        gpu.upload_level_var(per_level("x"), 0, np.zeros(8))
        s = gpu.resident_summary()
        assert s["patch_vars"] == 1
        assert s["level_db_entries"] == 1
