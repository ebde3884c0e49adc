"""The on-demand DataWarehouse.

Uintah tasks never exchange data directly: they ``put`` results into
and ``get`` inputs from a DataWarehouse keyed by (label, patch), and
the runtime satisfies ghost-cell requirements behind the scenes — "the
illusion the application has access to memory it does not actually
own" (paper Section III.C). This host-side DW supports:

* per-patch cell-centred variables with ghost-region assembly from
  neighbouring patches and from *foreign* pieces received over MPI,
* per-level variables (the coarse radiation mesh's global halo
  requirement collapses to one of these), and
* scalar reduction variables.

Two warehouse generations (old/new) flow through a timestep, swapped by
:meth:`DataWarehouseManager.advance`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.level import Level
from repro.dw.label import VarKind, VarLabel
from repro.dw.variables import CCVariable, ReductionVariable
from repro.util.errors import DataWarehouseError


@dataclass
class DWStats:
    """Operation counts for one warehouse generation — plain integer
    increments on the access paths, flushed to a metrics registry via
    :meth:`DataWarehouse.publish_metrics`."""

    puts: int = 0
    gets: int = 0
    foreign_adds: int = 0
    region_assemblies: int = 0
    #: local variables and foreign pieces :meth:`DataWarehouse.get_regions_into`
    #: examined, and how many of them it pasted into a region
    pieces_tested: int = 0
    pieces_pasted: int = 0
    level_puts: int = 0
    level_gets: int = 0
    reduction_puts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _placement(box: Box, share: Box, region: Box) -> tuple:
    """Where a piece over ``box`` lands in ``region``: (it holds
    ``share`` whole, slices into the region's array, slices into the
    piece's, the cells of ``share`` it covers); the slices ``None`` when
    it misses the region."""
    holds = box.contains_box(share)
    covers = share.volume if holds else box.intersect(share).volume
    where = box.overlap_slices(region)
    if where is None:
        return holds, None, None, covers
    return holds, where[0], where[1], covers


def _covered_volume(share: Box, boxes: Sequence[Box]) -> int:
    """Cells of ``share`` that the (possibly overlapping) ``boxes``
    cover: an exact mask over ``share`` alone."""
    covered = np.zeros(share.extent, dtype=bool)
    for box in boxes:
        overlap = box.intersect(share)
        if not overlap.empty:
            covered[overlap.slices(share.lo)] = True
    return int(covered.sum())


class DataWarehouse:
    """One generation of simulation state."""

    def __init__(self, generation: int = 0) -> None:
        self.generation = generation
        self.stats = DWStats()
        self._cc: Dict[Tuple[str, int], CCVariable] = {}
        self._foreign: Dict[Tuple[str, int], List[CCVariable]] = {}
        self._level: Dict[Tuple[str, int], np.ndarray] = {}
        self._reductions: Dict[str, ReductionVariable] = {}

    # ------------------------------------------------------------------
    # cell-centred per-patch variables
    # ------------------------------------------------------------------
    def put(self, label: VarLabel, patch_id: int, var: CCVariable) -> None:
        if label.kind is not VarKind.CELL_CENTERED:
            raise DataWarehouseError(f"put() needs a CC label, got {label}")
        key = (label.name, patch_id)
        if key in self._cc:
            raise DataWarehouseError(
                f"{label.name} already computed on patch {patch_id} "
                f"(double-compute)"
            )
        self.stats.puts += 1
        self._cc[key] = var

    def exists(self, label: VarLabel, patch_id: int) -> bool:
        return (label.name, patch_id) in self._cc

    def get(self, label: VarLabel, patch_id: int) -> CCVariable:
        self.stats.gets += 1
        try:
            return self._cc[(label.name, patch_id)]
        except KeyError:
            raise DataWarehouseError(
                f"{label.name} not found on patch {patch_id} in DW "
                f"generation {self.generation}"
            ) from None

    # ------------------------------------------------------------------
    # foreign variables (ghost pieces received over MPI)
    # ------------------------------------------------------------------
    def add_foreign(self, label: VarLabel, patch_id: int, var: CCVariable) -> None:
        """Stage a piece of a *remote* patch's data needed locally."""
        self.stats.foreign_adds += 1
        self._foreign.setdefault((label.name, patch_id), []).append(var)

    def get_region(
        self,
        label: VarLabel,
        level: Level,
        region: Box,
        default: Optional[float] = None,
    ) -> np.ndarray:
        """Assemble ``region`` of one label: :meth:`get_regions`' one-label call."""
        return self.get_regions((label,), level, region, (default,))[0]

    def get_regions(
        self,
        labels: Sequence[VarLabel],
        level: Level,
        region: Box,
        defaults: Optional[Sequence[Optional[float]]] = None,
        regions: Optional[Sequence[Box]] = None,
    ) -> List[np.ndarray]:
        """Assemble ``region`` of every label: one new array per label,
        in order, filled by :meth:`get_regions_into`'s one walk."""
        outs = [np.empty(region.extent) for _ in labels]
        self.get_regions_into(labels, level, region, outs, defaults, regions)
        return outs

    def get_regions_into(
        self,
        labels: Sequence[VarLabel],
        level: Level,
        region: Box,
        outs: Sequence[np.ndarray],
        defaults: Optional[Sequence[Optional[float]]] = None,
        regions: Optional[Sequence[Box]] = None,
    ) -> None:
        """The one walk every region read makes: paste ``region`` of each
        label from local patches + foreign pieces into the caller's array
        of that label (``outs``, each of ``region.extent``; a view into a
        larger array is the point).

        ``regions`` are the boxes inside ``region`` that are read — the
        regions of a launch's tasks, ``region`` their bounding box; by
        default ``region`` alone. Only the level's patches that meet one
        of them are consulted, each once: it contributes its local
        variable or, when it is remote, the foreign pieces staged under
        its ``(label, patch)`` key, each pasted once over its overlap
        with ``region``. Where a piece lands is worked out once per
        distinct box of the patch and shared by every label with a piece
        of that box (a task's puts share its patch's Box; the parts of
        one packed message share theirs) — within this call only,
        nothing is kept.

        Coverage is counted by volume: patches are disjoint, so the
        cells each piece covers of its own patch's share of ``region``
        add up, and a remote patch whose several pieces overlap gets an
        exact mask over its share alone. Only a label whose count falls
        short of ``region`` (holes: the wall ring, which no patch owns;
        or cells between the regions) gets a whole-region mask. Every
        cell of ``regions`` must be covered unless the label's entry of
        ``defaults`` is given, which then fills exactly the cells no
        piece covered; cells that were covered are never touched again,
        so NaN *values* are data like any other.
        """
        extent = region.extent
        if len(outs) != len(labels) or any(out.shape != extent for out in outs):
            raise DataWarehouseError(
                f"{len(labels)} labels over {region} need as many arrays of shape "
                f"{extent}, got {[out.shape for out in outs]}"
            )
        patches = level.patches_intersecting(region)
        if regions is None:
            regions = (region,)
        elif any(box != region for box in regions):
            if not all(region.contains_box(box) for box in regions):
                raise DataWarehouseError(f"regions {list(regions)} are not inside {region}")
            # of the bounding box's patches, those meeting one of the regions
            patches = [p for p in patches if any(p.box.intersects(box) for box in regions)]
        n = len(labels)
        counted = [0] * n
        # per label, the destination slices it pasted — read on a shortfall
        pasted: List[list] = [[] for _ in labels]
        names = [label.name for label in labels]
        local, foreign = self._cc.get, self._foreign.get
        gets = tested = used = 0
        for patch in patches:
            pid = patch.patch_id
            share = patch.box.intersect(region)
            # keyed by id: the labels' pieces share their Box objects
            placements: Dict[int, tuple] = {}
            for i, name in enumerate(names):
                var = local((name, pid))
                if var is not None:
                    gets += 1
                    pieces = (var,)
                else:
                    pieces = foreign((name, pid), ())
                # a remote patch's pieces may overlap, and one of them may
                # have been sent to cover the patch's whole share of this
                # region: look for it before pasting them all
                placed = []
                for var in pieces:
                    tested += 1
                    box = var.box
                    placement = placements.get(id(box))
                    if placement is None:
                        placement = placements[id(box)] = _placement(box, share, region)
                    if placement[0]:
                        placed = [(var, placement)]
                        break
                    placed.append((var, placement))
                out = outs[i]
                for var, (_, dest, src, _) in placed:
                    if dest is None:
                        continue
                    used += 1
                    out[dest] = var.data[src]
                    pasted[i].append(dest)
                if len(placed) == 1:
                    counted[i] += placed[0][1][3]
                elif placed:
                    counted[i] += _covered_volume(share, [var.box for var, _ in placed])
        stats = self.stats
        stats.region_assemblies += n
        stats.gets += gets
        stats.pieces_tested += tested
        stats.pieces_pasted += used
        volume = region.volume
        if defaults is None:
            defaults = (None,) * n
        for i, default in enumerate(defaults):
            if counted[i] == volume:
                continue
            covered = np.zeros(extent, dtype=bool)
            for dest in pasted[i]:
                covered[dest] = True
            missing = ~covered
            if default is not None:
                outs[i][missing] = default
                continue
            for box in regions:
                holes = int(missing[box.slices(region.lo)].sum())
                if holes:
                    raise DataWarehouseError(
                        f"{names[i]}: {holes} of {box.volume} cells "
                        f"of {box} are not covered by local or foreign data"
                    )

    # ------------------------------------------------------------------
    # per-level variables
    # ------------------------------------------------------------------
    def put_level(self, label: VarLabel, level_index: int, data: np.ndarray) -> None:
        if label.kind is not VarKind.PER_LEVEL:
            raise DataWarehouseError(f"put_level() needs a PER_LEVEL label, got {label}")
        key = (label.name, level_index)
        if key in self._level:
            raise DataWarehouseError(
                f"level variable {label.name} already exists on level {level_index}"
            )
        self.stats.level_puts += 1
        self._level[key] = data

    def get_level(self, label: VarLabel, level_index: int) -> np.ndarray:
        self.stats.level_gets += 1
        try:
            return self._level[(label.name, level_index)]
        except KeyError:
            raise DataWarehouseError(
                f"level variable {label.name} not found on level {level_index}"
            ) from None

    def has_level(self, label: VarLabel, level_index: int) -> bool:
        return (label.name, level_index) in self._level

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def put_reduction(self, label: VarLabel, var: ReductionVariable) -> None:
        if label.kind is not VarKind.REDUCTION:
            raise DataWarehouseError(f"put_reduction() needs a REDUCTION label")
        self.stats.reduction_puts += 1
        existing = self._reductions.get(label.name)
        self._reductions[label.name] = var if existing is None else existing.combine(var)

    def get_reduction(self, label: VarLabel) -> ReductionVariable:
        try:
            return self._reductions[label.name]
        except KeyError:
            raise DataWarehouseError(f"reduction {label.name} not found") from None

    # ------------------------------------------------------------------
    # bulk iteration (archive / checkpoint support)
    # ------------------------------------------------------------------
    def cc_items(self) -> List[Tuple[str, int, CCVariable]]:
        """Every cell-centred variable as ``(name, patch_id, var)``,
        in deterministic (name, patch) order — the serialization
        surface used by :class:`~repro.dw.archive.DataArchive` and the
        resilience checkpointer."""
        return [
            (name, pid, self._cc[(name, pid)])
            for name, pid in sorted(self._cc)
        ]

    def level_items(self) -> List[Tuple[str, int, np.ndarray]]:
        """Every per-level variable as ``(name, level_index, data)``."""
        return [
            (name, idx, self._level[(name, idx)])
            for name, idx in sorted(self._level)
        ]

    def reduction_items(self) -> List[Tuple[str, ReductionVariable]]:
        """Every reduction as ``(name, var)``."""
        return [(name, self._reductions[name]) for name in sorted(self._reductions)]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        total = sum(v.nbytes for v in self._cc.values())
        total += sum(v.nbytes for pieces in self._foreign.values() for v in pieces)
        total += sum(a.nbytes for a in self._level.values())
        return total

    def variable_names(self) -> List[str]:
        names = {n for n, _ in self._cc} | {n for n, _ in self._level}
        names |= set(self._reductions)
        return sorted(names)

    def publish_metrics(self, registry, **labels) -> None:
        """Flush this generation's operation counts and footprint into a
        metrics registry (call once per warehouse, e.g. at gather)."""
        for name, value in self.stats.as_dict().items():
            if value:
                registry.counter(f"dw.{name}", **labels).inc(value)
        registry.gauge("dw.nbytes", **labels).set(self.nbytes)
        registry.gauge("dw.variables", **labels).set(len(self.variable_names()))


class DataWarehouseManager:
    """Old/new DW pair with timestep advancement."""

    def __init__(self) -> None:
        self._generation = 0
        self.old_dw: Optional[DataWarehouse] = None
        self.new_dw = DataWarehouse(generation=0)

    def advance(self) -> None:
        """End of timestep: new becomes old, a fresh new is created."""
        self._generation += 1
        self.old_dw = self.new_dw
        self.new_dw = DataWarehouse(generation=self._generation)

    @property
    def generation(self) -> int:
        return self._generation
