"""A launch reads its fine data once: composition is invisible.

``TaskContext.require_launch`` reads the fine level for a launch's trace
tasks in one walk of their DataWarehouse, every patch meeting one of the
tasks' regions pasted once into a block over their bounding box, and
each window copies its own region from the block. Neither may show:
whichever of a rank's trace tasks share the launch, through whichever
scheduler and on however many ranks, every window is byte-identical —
NaN positions included — to the window built from a ``get_regions`` of
its task's region alone; and a region outside its task's declared ghost
box raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedRMCRT, LevelFields, benchmark_property_init, patch_roi
from repro.core.distributed import ABSKG, CELL_TYPE, DIVQ, SIGMA_T4
from repro.grid import CellType
from repro.radiation import BurnsChristonBenchmark
from repro.radiation.constants import SIGMA_SB
from repro.runtime import TaskContext
from repro.util.errors import SchedulerError

LABELS = [ABSKG, SIGMA_T4, CELL_TYPE]
DEFAULTS = [np.nan, np.nan, float(CellType.WALL)]
#: fine patch size -> the resolution that cuts the fine level into 27 or 8 patches
SCENES = {4: 12, 8: 16}


def property_init(seed):
    """Random properties, NaN values and wall cells among them, drawn
    over the level's domain and sliced to the box: a cell's value is a
    function of the cell (the initializer is pointwise), so any
    scheduler, packing its patches as it likes, builds the same field."""

    def init(level, box):
        domain = level.domain_box
        rng = np.random.default_rng([seed, level.index])
        abskg = rng.uniform(0.5, 3.0, domain.extent)
        abskg[rng.random(domain.extent) < 0.05] = np.nan
        cell_type = np.where(rng.random(domain.extent) < 0.1, CellType.WALL, CellType.FLOW)
        sigma_t4 = rng.uniform(0.5, 2.0, domain.extent)
        inner = box.slices(origin=domain.lo)
        return {
            "abskg": abskg[inner],
            "sigma_t4": sigma_t4[inner],
            "cell_type": cell_type.astype(np.int8)[inner],
        }

    return init


def window_alone(drm, ctx):
    """The window of one task, its region read by a walk of its own: the
    wall ring's values, NaN (and FLOW) inside the domain, then the region."""
    fine_level = drm.grid.finest_level
    interior = fine_level.domain_box
    roi = patch_roi(interior, ctx.patch.box, drm.options.halo)
    box = roi.grow(1).intersect(interior.grow(1))
    inner = interior.intersect(box).slices(origin=box.lo)
    window = LevelFields(
        abskg=np.full(box.extent, drm.wall_emissivity),
        sigma_t4=np.full(box.extent, SIGMA_SB * drm.wall_temperature ** 4),
        cell_type=np.full(box.extent, CellType.WALL, dtype=np.int8),
        interior=interior, dx=fine_level.dx, anchor=fine_level.anchor, window=box,
    )
    for field, fill in zip((window.abskg, window.sigma_t4, window.cell_type),
                           (np.nan, np.nan, CellType.FLOW)):
        field[inner] = fill
    region = ctx.patch.box.grow(drm.options.halo).intersect(interior)
    arrays = ctx.new_dw.get_regions(LABELS, fine_level, region, DEFAULTS)
    dst = region.slices(window.box.lo)
    for field, data in zip((window.abskg, window.sigma_t4, window.cell_type), arrays):
        field[dst] = data
    return window, roi


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=12, deadline=None)
@given(
    patch_size=st.sampled_from(sorted(SCENES)),
    halo=st.integers(1, 3),
    run=st.sampled_from([("serial", 1), ("threaded", 1), ("distributed", 1),
                         ("distributed", 2), ("distributed", 3)]),
    seed=st.integers(0, 2**31),
)
def test_every_window_of_a_launch_read_is_the_window_read_alone(patch_size, halo, run, seed):
    grid = BurnsChristonBenchmark(resolution=SCENES[patch_size]).two_level_grid(
        refinement_ratio=2, fine_patch_size=patch_size
    )
    drm = DistributedRMCRT(grid, property_init(seed), rays_per_cell=1, halo=halo)
    rng = np.random.default_rng(seed)
    checked = []

    def checking_trace(ctxs):
        # a random share of the launch's tasks, in a random order
        picked = [ctxs[k] for k in rng.permutation(len(ctxs))[: rng.integers(1, len(ctxs) + 1)]]
        stack, rois = drm._fine_windows(picked)
        for k, ctx in enumerate(picked):
            window, roi = stack.window(k), rois[k]
            alone, alone_roi = window_alone(drm, ctx)
            assert roi == alone_roi and window.box == alone.box
            for got, expected in (
                (window.abskg, alone.abskg),
                (window.sigma_t4, alone.sigma_t4),
                (window.cell_type, alone.cell_type),
            ):
                assert same_bytes(got, expected), ctx.patch.patch_id
            checked.append(ctx.patch.patch_id)
        # one task reaching a cell past its declared ghosts fails the read
        regions = [ctx.patch.box.grow(halo).intersect(grid.finest_level.domain_box)
                   for ctx in picked]
        wide = int(rng.integers(len(picked)))
        regions[wide] = picked[wide].patch.box.grow(halo + 1)
        with pytest.raises(SchedulerError, match=f"outside its declared {halo}-ghost box"):
            TaskContext.require_launch(picked, LABELS, regions, DEFAULTS)
        for ctx in ctxs:    # NaN data would poison a march: the windows are the test
            ctx.compute(DIVQ, np.zeros(ctx.patch.box.extent))

    drm._trace_cb = checking_trace
    scheduler, ranks = run
    drm.solve(scheduler, num_ranks=ranks)
    assert checked


def test_a_launch_read_wants_one_warehouse_and_a_region_per_task():
    bench = BurnsChristonBenchmark(resolution=8)
    grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=4)
    drm = DistributedRMCRT(grid, benchmark_property_init(bench), rays_per_cell=1, halo=1)
    trace = drm._trace_cb
    seen = []

    def checking_trace(ctxs):
        a, b = ctxs[:2]
        with pytest.raises(SchedulerError, match="2 tasks read as many regions, got 1"):
            TaskContext.require_launch([a, b], LABELS, [a.patch.box])
        with pytest.raises(SchedulerError, match="at least one task"):
            TaskContext.require_launch([], LABELS)
        stranger = TaskContext(b.task, b.patch, b.level, None, type(b.new_dw)())
        with pytest.raises(SchedulerError, match="another DataWarehouse"):
            TaskContext.require_launch([a, stranger], LABELS, defaults=DEFAULTS)
        seen.append(len(ctxs))
        trace(ctxs)

    drm._trace_cb = checking_trace
    drm.solve("serial")
    assert seen == [8]
