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
    #: local variables and foreign pieces :meth:`DataWarehouse.get_regions`
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
    piece's); the slices ``None`` when it misses the region."""
    overlap = box.intersect(region)
    if overlap.empty:
        return box.contains_box(share), None, None
    return box.contains_box(share), overlap.slices(region.lo), overlap.slices(box.lo)


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

    def modify(self, label: VarLabel, patch_id: int) -> CCVariable:
        """Like :meth:`get` but signals in-place mutation intent."""
        return self.get(label, patch_id)

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
    ) -> List[np.ndarray]:
        """Assemble ``region`` of every label from local patches + foreign
        pieces, in one walk: one array per label, in order.

        Only the level's patches that meet ``region`` are consulted:
        each contributes its local variable or, when it is remote, the
        foreign pieces staged under its ``(label, patch)`` key. Where a
        piece lands is a matter of its box alone, so it is worked out
        once per distinct box of a patch and shared by every label with
        a piece of that box (a patch's local variables; the parts of one
        packed message) — within this call only, nothing is kept. Every
        cell of ``region`` must be covered unless the label's entry of
        ``defaults`` is given, which then fills exactly the cells no
        piece covered (the wall ring, which no patch owns). Coverage is
        tracked beside the data, so NaN *values* are data like any other.
        """
        stats = self.stats
        stats.region_assemblies += len(labels)
        if defaults is None:
            defaults = (None,) * len(labels)
        extent = region.extent
        outs = [np.empty(extent) for _ in labels]
        covereds = [np.zeros(extent, dtype=bool) for _ in labels]
        for patch in level.patches_intersecting(region):
            share = patch.box.intersect(region)
            placements: Dict[Box, tuple] = {}
            for label, out, covered in zip(labels, outs, covereds):
                key = (label.name, patch.patch_id)
                local = self._cc.get(key)
                if local is not None:
                    stats.gets += 1
                    pieces = (local,)
                else:
                    pieces = self._foreign.get(key, ())
                # a remote patch's pieces may overlap, and one of them was
                # sent to cover the patch's whole share of this region:
                # look for it before pasting them all
                placed = []
                for var in pieces:
                    stats.pieces_tested += 1
                    box = var.box
                    placement = placements.get(box)
                    if placement is None:
                        placement = placements[box] = _placement(box, share, region)
                    if placement[0]:
                        placed = [(var, placement)]
                        break
                    placed.append((var, placement))
                for var, (_, dest, src) in placed:
                    if dest is None:
                        continue
                    stats.pieces_pasted += 1
                    out[dest] = var.data[src]
                    covered[dest] = True
        for label, out, covered, default in zip(labels, outs, covereds, defaults):
            if not covered.all():
                missing = ~covered
                if default is None:
                    raise DataWarehouseError(
                        f"{label.name}: {int(missing.sum())} of {region.volume} cells "
                        f"of {region} are not covered by local or foreign data"
                    )
                out[missing] = default
        return outs

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
