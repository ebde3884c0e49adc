"""Multi-level RMCRT expressed as a Uintah task graph.

This is the paper's production shape: radiation is not a monolithic
solve but three task types compiled into the per-timestep graph —

1. ``rmcrt.initProperties`` (per fine patch): evaluate/copy the
   radiative properties onto the patch (in ARCHES these come from the
   CFD state; here from a property-initializer callable).
2. ``rmcrt.coarsen`` (once per graph): project the fine properties to
   every coarse radiation level and publish them as PER_LEVEL
   variables — the "global halo on all coarse levels" requirement that
   the level database and the per-rank broadcast dedup make affordable.
3. ``rmcrt.trace`` (per fine patch, optionally a device task): march
   the patch's rays over fine data restricted to the patch ROI plus the
   shared coarse levels, computing del.q (and the wall flux, from its
   wall faces' rays in the same launch).

A rank's ready per-patch tasks run as packs, one launch each: a task
declares its share of a launch and the rank loop hands the callback
every ready instance that fits. The init's share is nothing, so a rank's
ready inits are one ``property_init`` call; the trace's is its rays over
:data:`~repro.core.kernels.LAUNCH_RAYS`, and the rays of a pack march
together (:func:`~repro.core.kernels.trace_patch_multi_level`, which
cuts a patch wider than the launch to it) — the paper's many patch
tasks sharing one device and one resident coarse level.

Faithfulness guard: each trace task's fine data is a *window* of the
fine level — its ROI and the cells around it — holding ONLY what the
task graph communicated to it (everything else is NaN), so a kernel
read outside that data poisons the patch's result instead of silently
using data a real distributed run would not have. The guard is per
window: in a fused launch each lane reads its own task's window, and
the error names the patch whose window was over-read.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.grid import Grid
from repro.grid.level import Level
from repro.grid.loadbalance import LoadBalancer
from repro.grid.refinement import coarsen_average, coarsen_max
from repro.dw.label import cc, per_level
from repro.radiation.constants import SIGMA_SB
from repro.core.fields import StackedFields
from repro.core.kernels import LAUNCH_RAYS, TraceOptions, patch_roi, trace_patch_multi_level
from repro.core.rays import checked_rays_per_face, wall_faces
from repro.core.single_level import RMCRTResult
from repro.runtime.scheduler import (
    DistributedScheduler,
    SerialScheduler,
    ThreadedScheduler,
    gather_cc,
)
from repro.runtime.gpu_scheduler import GPUScheduler
from repro.runtime.task import Computes, Requires, Task, TaskContext
from repro.runtime.taskgraph import TaskGraph
from repro.util.errors import ReproError
from repro.util.rng import SPECTRAL_STREAM, spawn_stream
from repro.util.timing import TimerRegistry

ABSKG = cc("abskg")
SIGMA_T4 = cc("sigma_t4")
CELL_TYPE = cc("cell_type")
DIVQ = cc("divq")
WALL_FLUX = cc("wall_flux")

#: ``init(level, box)`` -> the ``abskg``, ``sigma_t4`` and ``cell_type``
#: arrays over ``box``. It must be pointwise: a cell's value does not
#: depend on the box asked for, so one call over a box covering several
#: patches, sliced, is each patch's own call byte for byte — the init
#: task packs its patches on that promise.
PropertyInit = Callable[[Level, Box], Dict[str, np.ndarray]]


def benchmark_property_init(benchmark) -> PropertyInit:
    """Property initializer for a Burns & Christon benchmark object."""

    def init(level: Level, box: Box) -> Dict[str, np.ndarray]:
        return {
            "abskg": benchmark.abskg_field(level, box),
            "sigma_t4": np.ones(box.extent),
            "cell_type": np.full(box.extent, CellType.FLOW, dtype=np.int8),
        }

    return init


class DistributedRMCRT:
    """The 3-task RMCRT pipeline over any of the runtime's schedulers.

    The trace keywords are :class:`~repro.core.kernels.TraceOptions`'s,
    held as ``self.options``; the rest describe the scene (the wall
    ring), the run (``device``) and the wall flux.
    """

    def __init__(
        self,
        grid: Grid,
        property_init: PropertyInit,
        *,
        seed: int = 0,
        wall_temperature: float = 0.0,
        wall_emissivity: float = 1.0,
        device: bool = False,
        compute_boundary_flux: bool = False,
        flux_rays_per_face: int = 16,
        **options,
    ) -> None:
        if grid.num_levels < 2:
            raise ReproError("DistributedRMCRT needs a multi-level grid")
        if not grid.finest_level.patches:
            raise ReproError("the finest level must be decomposed into patches")
        self.options = TraceOptions(**options)
        self.grid = grid
        self.property_init = property_init
        self.seed = int(seed)
        self.wall_temperature = float(wall_temperature)
        self.wall_emissivity = float(wall_emissivity)
        self.device = bool(device)
        self.compute_boundary_flux = bool(compute_boundary_flux)
        self.flux_rays_per_face = checked_rays_per_face(flux_rays_per_face)
        self._coarse_labels = {
            idx: {
                "abskg": per_level(f"abskg_L{idx}"),
                "sigma_t4": per_level(f"sigma_t4_L{idx}"),
                "cell_type": per_level(f"cell_type_L{idx}"),
            }
            for idx in range(grid.num_levels - 1)
        }

    # ------------------------------------------------------------------
    # task callbacks
    # ------------------------------------------------------------------
    def _init_cb(self, ctxs) -> None:
        """One launch for the patches of ``ctxs``: one ``property_init``
        call over their bounding box (the initializer is pointwise, so a
        slice of it is the patch's own call), the cell type cast to float
        once, and each patch's slice published as its own array."""
        block = reduce(Box.bounding_union, (ctx.patch.box for ctx in ctxs))
        fields = self.property_init(ctxs[0].level, block)
        values = (fields["abskg"], fields["sigma_t4"], fields["cell_type"].astype(np.float64))
        for ctx in ctxs:
            inner = ctx.patch.box.slices(origin=block.lo)
            for label, value in zip((ABSKG, SIGMA_T4, CELL_TYPE), values):
                ctx.compute(label, value[inner].copy())

    def _coarsen_cb(self, ctx) -> None:
        abskg, st4, ct = ctx.require_many([ABSKG, SIGMA_T4, CELL_TYPE])
        fine_idx = self.grid.num_levels - 1
        for idx in range(fine_idx - 1, -1, -1):
            ratio = self.grid.level(idx + 1).refinement_ratio[0]
            abskg = coarsen_average(abskg, ratio)
            st4 = coarsen_average(st4, ratio)
            ct = coarsen_max(ct, ratio)
            labels = self._coarse_labels[idx]
            ctx.compute_level(labels["abskg"], abskg)
            ctx.compute_level(labels["sigma_t4"], st4)
            ctx.compute_level(labels["cell_type"], ct)

    def _wall_stack(self, level: Level, boxes: List[Box], windowed: bool = True) -> StackedFields:
        """A stack of ``boxes`` of the level holding the wall ring's values
        in every cell; the caller writes what lies inside the domain."""
        stack = StackedFields(level.domain_box, level.dx, level.anchor, boxes, [windowed] * len(boxes))
        cells = slice(0, stack.sink)
        stack.abskg[cells] = self.wall_emissivity
        stack.sigma_t4[cells] = SIGMA_SB * self.wall_temperature ** 4
        stack.cell_type[cells] = CellType.WALL
        return stack

    def _coarse_fields(self, ctx) -> List[StackedFields]:
        """The coarse levels from the DataWarehouse, coarsest-first, each
        stacked whole — shared by every task of a launch."""
        coarse_fields = []
        for idx, labels in self._coarse_labels.items():
            level = self.grid.level(idx)
            ring = level.domain_box.grow(1)
            coarse = self._wall_stack(level, [ring], windowed=False)
            inner = level.domain_box.slices(origin=ring.lo)
            for view, label in zip(coarse.views(0), labels.values()):
                view[inner] = ctx.require_level(label)
            coarse_fields.append(coarse)
        return coarse_fields

    def _fine_windows(self, ctxs) -> Tuple[StackedFields, List[Box]]:
        """The launch's fine data: a stack of one window of the fine level
        a task — its ROI and the cells around it (a ray parks one cell
        outside) — holding what the task was sent and NaN where it was
        sent nothing. The launch reads the fine level once — every patch
        meeting one of its tasks' ``patch + halo`` regions pasted once
        into a block — and each window is written straight into its slice
        of the stack: the wall ring, NaN inside the domain, then its
        region from the block, which is gone before the march. Returns
        the stack and each task's ROI."""
        fine_level = self.grid.finest_level
        interior = fine_level.domain_box
        ring = interior.grow(1)
        halo = self.options.halo
        rois = [patch_roi(interior, ctx.patch.box, halo) for ctx in ctxs]
        boxes = [roi.grow(1).intersect(ring) for roi in rois]
        stack = self._wall_stack(fine_level, boxes)
        regions = [ctx.patch.box.grow(halo).intersect(interior) for ctx in ctxs]
        block_box, block = TaskContext.require_launch(
            ctxs,
            [ABSKG, SIGMA_T4, CELL_TYPE],
            regions,
            defaults=[np.nan, np.nan, float(CellType.WALL)],
        )
        for k, (box, region) in enumerate(zip(boxes, regions)):
            inner = interior.intersect(box).slices(origin=box.lo)
            src, dst = region.slices(block_box.lo), region.slices(box.lo)
            for view, unsent, data in zip(stack.views(k), (np.nan, np.nan, CellType.FLOW), block):
                view[inner] = unsent
                view[dst] = data[src]
        return stack, rois

    def _wall_faces(self, patch) -> list:
        """(axis, side, slab) of each wall the patch touches, with the flux on."""
        if not self.compute_boundary_flux:
            return []
        return wall_faces(self.grid.finest_level.domain_box, patch.box)

    def _rays_of(self, patch) -> int:
        """The rays a patch's trace draws: its cells' and its wall faces'."""
        faces = sum(slab.volume for _, _, slab in self._wall_faces(patch))
        return patch.num_cells * self.options.rays_per_cell + faces * self.flux_rays_per_face

    def _trace_cb(self, ctxs) -> None:
        """One launch for the patches of ``ctxs``: a window each, the
        fine level read and the coarse levels assembled once; with the
        flux on, each patch's wall faces are a ray source too. One NaN
        test over the launch's results names the first patch poisoned."""
        fine, rois = self._fine_windows(ctxs)
        patches = [
            (ctx.patch.box, roi, spawn_stream(self.seed, 0, ctx.patch.patch_id))
            for ctx, roi in zip(ctxs, rois)
        ]
        faces = [
            [
                (axis, side, slab, spawn_stream(self.seed, 1, ctx.patch.patch_id, 2 * axis + side))
                for axis, side, slab in self._wall_faces(ctx.patch)
            ]
            for ctx in ctxs
        ]
        divqs, fluxes = trace_patch_multi_level(
            self._coarse_fields(ctxs[0]),
            fine,
            patches,
            self.options,
            band_rngs=None if self.options.spectral is None else [
                spawn_stream(self.seed, SPECTRAL_STREAM, ctx.patch.patch_id) for ctx in ctxs
            ],
            faces=faces,
            rays_per_face=self.flux_rays_per_face,
        )
        results = [divqs]
        if self.compute_boundary_flux:
            results.append([])
            for ctx, patch_faces, qs in zip(ctxs, faces, fluxes):
                box = ctx.patch.box
                flux = np.zeros(box.extent)
                for (_, _, slab, _), q in zip(patch_faces, qs):
                    # edge/corner cells accumulate contributions from each wall
                    flux[slab.slices(origin=box.lo)] += q
                results[1].append(flux)
        poisoned = np.isnan(np.concatenate([a for arrays in results for a in arrays], axis=None))
        if poisoned.any():
            # the results are laid out label after label, patch after patch
            ends = np.cumsum([ctx.patch.box.volume for ctx in ctxs])
            cell = poisoned.argmax() % ends[-1]
            ctx = ctxs[int(np.searchsorted(ends, cell, side="right"))]
            raise ReproError(
                f"trace on patch {ctx.patch.patch_id} read cells outside its "
                f"ROI (NaN poisoning fired) — halo/ROI declaration is wrong"
            )
        # each task's result its own array: a view would keep the launch's
        # whole del.q alive in the warehouse for as long as any patch's
        for ctx, values in zip(ctxs, zip(*results)):
            for label, value in zip((DIVQ, WALL_FLUX), values):
                ctx.compute(label, value.copy())

    # ------------------------------------------------------------------
    # graph assembly + solve
    # ------------------------------------------------------------------
    def build_graph(
        self, assignment: Optional[Dict[int, int]] = None, num_ranks: int = 1
    ):
        return self.build_taskgraph().compile(
            assignment=assignment, num_ranks=num_ranks
        )

    def build_taskgraph(self) -> TaskGraph:
        """The uncompiled task list — what ``repro check graph`` and the
        static validator inspect before compilation."""
        fine_idx = self.grid.num_levels - 1
        tg = TaskGraph(self.grid)
        tg.add_task(
            Task(
                "rmcrt.initProperties",
                self._init_cb,
                computes=[Computes(ABSKG), Computes(SIGMA_T4), Computes(CELL_TYPE)],
                launch_share=lambda patch: 0.0,
            ),
            fine_idx,
        )
        coarse_computes = [
            Computes(lbl, level_index=idx)
            for idx, labels in self._coarse_labels.items()
            for lbl in labels.values()
        ]
        tg.add_level_task(
            Task(
                "rmcrt.coarsen",
                self._coarsen_cb,
                requires=[Requires(ABSKG), Requires(SIGMA_T4), Requires(CELL_TYPE)],
                computes=coarse_computes,
            ),
            fine_idx,
        )
        halo = self.options.halo
        trace_requires = [
            Requires(ABSKG, num_ghost=halo),
            Requires(SIGMA_T4, num_ghost=halo),
            Requires(CELL_TYPE, num_ghost=halo),
        ] + [
            Requires(lbl, level_index=idx)
            for idx, labels in self._coarse_labels.items()
            for lbl in labels.values()
        ]
        tg.add_task(
            Task(
                "rmcrt.trace",
                self._trace_cb,
                requires=trace_requires,
                computes=[Computes(DIVQ)] + (
                    [Computes(WALL_FLUX)] if self.compute_boundary_flux else []
                ),
                device=self.device,
                launch_share=lambda patch: self._rays_of(patch) / LAUNCH_RAYS,
            ),
            fine_idx,
        )
        return tg

    def solve(
        self,
        scheduler: str = "serial",
        num_ranks: int = 1,
        num_threads: int = 4,
        pool_kind: str = "waitfree",
        gpu=None,
        tracer=None,
        metrics=None,
    ) -> RMCRTResult:
        """Run the pipeline and gather del.q on the fine level.

        ``tracer``/``metrics`` flow into the chosen scheduler so a solve
        shows up in the observability layer; after a distributed solve,
        :attr:`last_runtime_stats` holds the across-rank reduction of
        the scheduler's per-rank stats.
        """
        timers = TimerRegistry()
        fine = self.grid.finest_level
        rays = sum(map(self._rays_of, fine.patches))
        self.last_runtime_stats = None
        with timers("rmcrt_solve"):
            if scheduler == "serial":
                graph = self.build_graph()
                dw = SerialScheduler(tracer=tracer, metrics=metrics).execute(graph)
                rank_dws = {0: dw}
            elif scheduler == "threaded":
                graph = self.build_graph()
                dw = ThreadedScheduler(
                    num_threads=num_threads, tracer=tracer, metrics=metrics
                ).execute(graph)
                rank_dws = {0: dw}
            elif scheduler == "gpu":
                graph = self.build_graph()
                engine = GPUScheduler(gpu=gpu, tracer=tracer, metrics=metrics)
                dw = engine.execute(graph)
                rank_dws = {0: dw}
            elif scheduler == "distributed":
                lb = LoadBalancer(num_ranks)
                assignment = lb.assign(fine.patches)
                graph = self.build_graph(assignment=assignment, num_ranks=num_ranks)
                engine = DistributedScheduler(
                    num_ranks, pool_kind=pool_kind, tracer=tracer, metrics=metrics
                )
                rank_dws = engine.execute(graph)
                self.last_runtime_stats = engine.runtime_stats()
            else:
                raise ReproError(f"unknown scheduler {scheduler!r}")
            divq = gather_cc(graph, rank_dws, DIVQ, self.grid.num_levels - 1)
            wall_flux = None
            if self.compute_boundary_flux:
                wall_flux = gather_cc(
                    graph, rank_dws, WALL_FLUX, self.grid.num_levels - 1
                )
        if metrics is not None:
            for rank, dw in rank_dws.items():
                dw.publish_metrics(metrics, rank=rank)
        return RMCRTResult(
            divq=divq, rays_traced=rays, timers=timers, wall_flux=wall_flux
        )
