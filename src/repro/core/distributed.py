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

A rank's ready trace tasks run as one launch: the task declares its
share of a launch (its rays over :data:`~repro.core.kernels.LAUNCH_RAYS`),
the rank loop hands the callback every ready instance that fits, and
their rays march together
(:func:`~repro.core.kernels.trace_patch_multi_level`, which cuts a patch
wider than the launch to it) — the paper's many patch tasks sharing one
device and one resident coarse level.

Faithfulness guard: each trace task's fine data is a *window* of the
fine level — its ROI and the cells around it — holding ONLY what the
task graph communicated to it (everything else is NaN), so a kernel
read outside that data poisons the patch's result instead of silently
using data a real distributed run would not have. The guard is per
window: in a fused launch each lane reads its own task's window, and
the error names the patch whose window was over-read.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.grid import Grid
from repro.grid.level import Level
from repro.grid.loadbalance import LoadBalancer
from repro.grid.refinement import coarsen_average, coarsen_max
from repro.dw.label import cc, per_level
from repro.radiation.constants import SIGMA_SB
from repro.core.fields import LevelFields
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
    def _init_cb(self, ctx) -> None:
        fields = self.property_init(ctx.level, ctx.patch.box)
        ctx.compute(ABSKG, fields["abskg"])
        ctx.compute(SIGMA_T4, fields["sigma_t4"])
        ctx.compute(CELL_TYPE, fields["cell_type"].astype(np.float64))

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

    def _wall_ring_fields(self, level: Level, window: Optional[Box] = None) -> LevelFields:
        """Arrays over ``window`` of the level (default: its whole ring
        box) pre-filled with the wall ring; interior NaN."""
        interior = level.domain_box
        box = window if window is not None else interior.grow(1)
        abskg = np.full(box.extent, self.wall_emissivity)
        st4 = np.full(box.extent, SIGMA_SB * self.wall_temperature ** 4)
        ct = np.full(box.extent, CellType.WALL, dtype=np.int8)
        inner = interior.intersect(box).slices(origin=box.lo)
        abskg[inner] = np.nan
        st4[inner] = np.nan
        ct[inner] = CellType.FLOW
        return LevelFields(
            abskg=abskg,
            sigma_t4=st4,
            cell_type=ct,
            interior=interior,
            dx=level.dx,
            anchor=level.anchor,
            window=window,
        )

    def _coarse_fields(self, ctx) -> List[LevelFields]:
        """The coarse levels from the DataWarehouse, coarsest-first —
        shared by every task of a launch."""
        coarse_fields = []
        for idx, labels in self._coarse_labels.items():
            level = self.grid.level(idx)
            coarse = self._wall_ring_fields(level)
            inner = level.domain_box.slices(origin=coarse.box.lo)
            coarse.abskg[inner] = ctx.require_level(labels["abskg"])
            coarse.sigma_t4[inner] = ctx.require_level(labels["sigma_t4"])
            coarse.cell_type[inner] = ctx.require_level(labels["cell_type"]).astype(np.int8)
            coarse_fields.append(coarse)
        return coarse_fields

    def _fine_windows(self, ctxs) -> List[tuple]:
        """Each task's fine data as a window of the fine level: the ROI
        and the cells around it (a ray parks one cell outside), holding
        what the task was sent and NaN where it was sent nothing. The
        launch reads the fine level once — every patch meeting one of
        its tasks' ``patch + halo`` regions pasted once into a block —
        and each window copies its own region from the block, which is
        gone before the march. Returns one (window, roi) per task."""
        fine_level = self.grid.finest_level
        interior = fine_level.domain_box
        halo = self.options.halo
        regions = [ctx.patch.box.grow(halo).intersect(interior) for ctx in ctxs]
        block_box, block = TaskContext.require_launch(
            ctxs,
            [ABSKG, SIGMA_T4, CELL_TYPE],
            regions,
            defaults=[np.nan, np.nan, float(CellType.WALL)],
        )
        windows = []
        for ctx, region in zip(ctxs, regions):
            roi = patch_roi(interior, ctx.patch.box, halo)
            fine = self._wall_ring_fields(fine_level, roi.grow(1).intersect(interior.grow(1)))
            src, dst = region.slices(block_box.lo), region.slices(fine.box.lo)
            fine.abskg[dst] = block[0][src]
            fine.sigma_t4[dst] = block[1][src]
            fine.cell_type[dst] = block[2][src]
            windows.append((fine, roi))
        return windows

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
        flux on, each patch's wall faces are a ray source too."""
        patches = [
            (window, ctx.patch.box, roi, spawn_stream(self.seed, 0, ctx.patch.patch_id))
            for ctx, (window, roi) in zip(ctxs, self._fine_windows(ctxs))
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
            patches,
            self.options,
            band_rngs=None if self.options.spectral is None else [
                spawn_stream(self.seed, SPECTRAL_STREAM, ctx.patch.patch_id) for ctx in ctxs
            ],
            faces=faces,
            rays_per_face=self.flux_rays_per_face,
        )
        for ctx, divq, patch_faces, qs in zip(ctxs, divqs, faces, fluxes):
            results = [(DIVQ, divq)]
            if self.compute_boundary_flux:
                box = ctx.patch.box
                flux = np.zeros(box.extent)
                for (_, _, slab, _), q in zip(patch_faces, qs):
                    # edge/corner cells accumulate contributions from each wall
                    flux[slab.slices(origin=box.lo)] += q
                results.append((WALL_FLUX, flux))
            if any(np.isnan(value).any() for _, value in results):
                raise ReproError(
                    f"trace on patch {ctx.patch.patch_id} read cells outside its "
                    f"ROI (NaN poisoning fired) — halo/ROI declaration is wrong"
                )
            for label, value in results:
                ctx.compute(label, value)

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
