"""Task declarations — the application/runtime contract.

A Uintah task declares what it *requires* (with ghost-cell widths) and
what it *computes*; the runtime derives all scheduling and every MPI
message from those declarations (paper Section II). The callback never
touches MPI or neighbours directly: it reads assembled regions from the
DataWarehouse through a :class:`TaskContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.level import Level
from repro.grid.patch import Patch
from repro.dw.datawarehouse import DataWarehouse
from repro.dw.label import VarKind, VarLabel
from repro.dw.variables import CCVariable, ReductionVariable
from repro.util.errors import DataWarehouseError, SchedulerError


@dataclass(frozen=True)
class Requires:
    label: VarLabel
    dw: str = "new"           #: "old" (previous timestep) or "new"
    num_ghost: int = 0        #: halo width for CC variables
    level_index: Optional[int] = None  #: for PER_LEVEL variables

    def __post_init__(self) -> None:
        if self.dw not in ("old", "new"):
            raise SchedulerError(f"dw must be 'old' or 'new', got {self.dw!r}")
        if self.num_ghost < 0:
            raise SchedulerError("num_ghost must be >= 0")
        if self.label.kind is VarKind.PER_LEVEL and self.level_index is None:
            raise SchedulerError(f"PER_LEVEL requires needs level_index: {self.label}")


@dataclass(frozen=True)
class Computes:
    label: VarLabel
    level_index: Optional[int] = None


class Task:
    """A task type, instantiated per patch at graph compile time.

    ``callback(ctx)`` receives a :class:`TaskContext`; device tasks
    (``device=True``) are routed to the GPU scheduler's stage queues.

    A task whose instances can share a launch declares ``launch_share``:
    the fraction of one full launch its instance on a patch fills. Its
    callback then takes a *sequence* of contexts — the ready instances a
    rank runs together, as many as fit one launch — and must leave each
    patch's results as if it had run alone.
    """

    def __init__(
        self,
        name: str,
        callback: Callable[..., None],
        requires: Sequence[Requires] = (),
        computes: Sequence[Computes] = (),
        device: bool = False,
        launch_share: Optional[Callable[[Patch], float]] = None,
    ) -> None:
        if not name:
            raise SchedulerError("task name must be non-empty")
        self.name = name
        self.callback = callback
        self.requires = list(requires)
        self.computes = list(computes)
        self.device = bool(device)
        self.launch_share = launch_share
        computed = [c.label.name for c in self.computes]
        if len(set(computed)) != len(computed):
            raise SchedulerError(f"task {name} computes a label twice")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name}, req={len(self.requires)}, comp={len(self.computes)})"


class TaskContext:
    """What a task callback sees: its patch plus checked DW access.

    Access is validated against the declaration — reading an undeclared
    label or writing an undeclared compute raises, which is how Uintah
    catches mis-declared dependencies before they become races.
    """

    def __init__(
        self,
        task: Task,
        patch: Patch,
        level: Level,
        old_dw: Optional[DataWarehouse],
        new_dw: DataWarehouse,
        rank: int = 0,
    ) -> None:
        self.task = task
        self.patch = patch
        self.level = level
        self.old_dw = old_dw
        self.new_dw = new_dw
        self.rank = rank

    def _dw(self, which: str) -> DataWarehouse:
        if which == "old":
            if self.old_dw is None:
                raise SchedulerError(
                    f"task {self.task.name} reads old DW but none exists yet"
                )
            return self.old_dw
        return self.new_dw

    def _declared_requires(self, label: VarLabel) -> Requires:
        for r in self.task.requires:
            if r.label == label:
                return r
        raise SchedulerError(
            f"task {self.task.name} reads undeclared label {label.name}"
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def require(
        self, label: VarLabel, num_ghost: Optional[int] = None, default: Optional[float] = None
    ) -> np.ndarray:
        """Assembled array over patch + ghost cells."""
        decl = self._declared_requires(label)
        ghost = decl.num_ghost if num_ghost is None else num_ghost
        if ghost > decl.num_ghost:
            raise SchedulerError(
                f"task {self.task.name} asks {ghost} ghosts of {label.name} "
                f"but declared only {decl.num_ghost}"
            )
        region = self.patch.box.grow(ghost)
        return self._dw(decl.dw).get_region(label, self.level, region, default=default)

    def require_many(
        self,
        labels: Sequence[VarLabel],
        defaults: Optional[Sequence[Optional[float]]] = None,
    ) -> List[np.ndarray]:
        """:meth:`require` for several labels declared with one ghost
        width on one DW: :meth:`require_launch` for this task alone over
        its patch grown by the declared ghosts — one new array per label,
        in order (``defaults`` fill exactly the cells nothing covered)."""
        return TaskContext.require_launch([self], labels, defaults=defaults)[1]

    @staticmethod
    def require_launch(
        ctxs: Sequence["TaskContext"],
        labels: Sequence[VarLabel],
        regions: Optional[Sequence[Box]] = None,
        defaults: Optional[Sequence[Optional[float]]] = None,
    ) -> Tuple[Box, List[np.ndarray]]:
        """The reads of a launch's tasks, in one walk of their
        DataWarehouse (:meth:`DataWarehouse.get_regions_into`).

        Each task reads ``labels`` over its entry of ``regions`` (by
        default its patch grown by the declared ghosts), which must lie
        inside that grown box; it must have declared the labels with one
        ghost width on one DW, and the tasks must read one warehouse and
        one level. Returns the regions' bounding box and one new array
        per label over it: each patch meeting a region pasted once, a
        cell nothing covered holding its label's ``defaults`` entry, and
        cells outside every region unspecified."""
        if not ctxs:
            raise SchedulerError("a launch read needs at least one task")
        if regions is not None and len(regions) != len(ctxs):
            raise SchedulerError(
                f"{len(ctxs)} tasks read as many regions, got {len(regions)}"
            )
        dw = level = None
        boxes = []
        for k, ctx in enumerate(ctxs):
            decls = [ctx._declared_requires(label) for label in labels]
            if len({(decl.dw, decl.num_ghost) for decl in decls}) != 1:
                raise SchedulerError(
                    f"task {ctx.task.name} reads {[label.name for label in labels]} "
                    f"together, but declared them with different ghost widths or DWs: "
                    f"{[(decl.dw, decl.num_ghost) for decl in decls]}"
                )
            ghosted = ctx.patch.box.grow(decls[0].num_ghost)
            region = ghosted if regions is None else regions[k]
            if not ghosted.contains_box(region):
                raise SchedulerError(
                    f"task {ctx.task.name} on patch {ctx.patch.patch_id} reads {region} of "
                    f"{[label.name for label in labels]}, outside its declared "
                    f"{decls[0].num_ghost}-ghost box {ghosted}"
                )
            if dw is None:
                dw, level = ctx._dw(decls[0].dw), ctx.level
            elif ctx._dw(decls[0].dw) is not dw or ctx.level is not level:
                raise SchedulerError(
                    f"task {ctx.task.name} on patch {ctx.patch.patch_id} reads another "
                    f"DataWarehouse or level than the launch it is in"
                )
            boxes.append(region)
        block = reduce(Box.bounding_union, boxes)
        return block, dw.get_regions(labels, level, block, defaults, boxes)

    def require_level(self, label: VarLabel) -> np.ndarray:
        decl = self._declared_requires(label)
        return self._dw(decl.dw).get_level(label, decl.level_index)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _declared_computes(self, label: VarLabel) -> Computes:
        for c in self.task.computes:
            if c.label == label:
                return c
        raise SchedulerError(
            f"task {self.task.name} writes undeclared label {label.name}"
        )

    def compute(self, label: VarLabel, data: np.ndarray) -> None:
        """Publish a patch-interior array as this task's result."""
        self._declared_computes(label)
        try:
            # the variable's own check is the one shape check of a put
            var = CCVariable(self.patch.box, data)
        except DataWarehouseError:
            if tuple(np.shape(data)) == self.patch.box.extent:
                raise
            raise SchedulerError(
                f"task {self.task.name}: computed {label.name} shape "
                f"{np.shape(data)} != patch extent {self.patch.box.extent}"
            ) from None
        self.new_dw.put(label, self.patch.patch_id, var)

    def compute_level(self, label: VarLabel, data: np.ndarray) -> None:
        decl = self._declared_computes(label)
        level_index = decl.level_index if decl.level_index is not None else self.level.index
        self.new_dw.put_level(label, level_index, data)

    def compute_reduction(self, label: VarLabel, value: float, op: str = "sum") -> None:
        self._declared_computes(label)
        self.new_dw.put_reduction(label, ReductionVariable(float(value), op))
