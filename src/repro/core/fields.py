"""Level-resident field bundles the marching kernels consume.

A :class:`LevelFields` is the device-side form of one mesh level: the
three radiative-property arrays (with their one-cell wall ring) plus
the geometric metadata (spacing, anchor) the DDA needs to convert
between physical positions and cells. This is what the GPU
DataWarehouse's level database stores once per level and shares across
all patch tasks on a GPU (paper Section III.C). It is also the form a
launch marches: the raveled arrays of K windows of the level laid end
to end, written once. A patch task's fine data is a window, its arrays
cropped to the cells the task holds, cell indices still the level's; the
whole level is the one window whose box is the ring box, as a direct
solve builds it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.level import Level
from repro.radiation.constants import SIGMA_SB
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import GridError

_INV_PI = 1.0 / np.pi


class LevelFields:
    """One level's data as a launch marches it: the raveled arrays of K
    windows of the level laid end to end, then one *sink* cell (no
    absorption, no emission, FLOW) where a finished lane is parked.

    Window ``k`` covers ``boxes[k]`` (a window of the level, or its whole
    ring box) and its cells are the slice ``slots[k][0]`` of the stack, in
    C order over the box. ``abskg``, ``sigma_t4`` and ``cell_type`` are
    written once, window by window through :meth:`views`; the rows the
    DDA reads beside ``abskg`` are derived from them on first use and kept
    with the stack: ``emis`` (sigma_t4 / pi) and ``wall`` (not FLOW).
    Write every window before the first march.
    """

    def __init__(
        self,
        interior: Box,
        dx: Tuple[float, float, float],
        anchor: Tuple[float, float, float],
        boxes: Sequence[Box],
    ) -> None:
        self.interior = interior
        self.dx = tuple(float(v) for v in dx)
        self.anchor = tuple(float(v) for v in anchor)
        self.boxes = tuple(boxes)
        ring = self.ring_box
        slots, geometry, n = [], [], 0
        for box in self.boxes:
            if not ring.contains_box(box):
                raise GridError(f"window {box} escapes level ring box {ring}")
            extent = box.extent
            _, ey, ez = extent
            # the window's x and y strides (z's is 1), and cell (0, 0, 0)'s offset
            geometry.append((ey * ez, ez, n - (box.lo[0] * ey + box.lo[1]) * ez - box.lo[2]))
            slots.append((slice(n, n + box.volume), extent))
            n += box.volume
        #: per window, its cells' slice of the stack and its box's extent
        self.slots = slots
        #: (3, K) rows of whole numbers, as floats: the x stride, the y
        #: stride and the offset of cell (0, 0, 0) of each window
        self.geometry = np.array(geometry, dtype=np.float64).reshape(-1, 3).T
        self.sink = n
        self.abskg = np.empty(n + 1)
        self.sigma_t4 = np.empty(n + 1)
        self.cell_type = np.empty(n + 1, dtype=np.int8)
        self.abskg[n] = self.sigma_t4[n] = 0.0
        self.cell_type[n] = CellType.FLOW

    @staticmethod
    def from_properties(level: Level, props: RadiativeProperties) -> "LevelFields":
        """The whole level, one window over its ring box, written from ``props``."""
        if props.interior != level.domain_box:
            raise GridError(
                f"properties interior {props.interior} != level domain {level.domain_box}"
            )
        fields = LevelFields(level.domain_box, level.dx, level.anchor, [level.domain_box.grow(1)])
        for view, data in zip(fields.views(0), (props.abskg, props.sigma_t4, props.cell_type)):
            view[...] = data
        return fields

    @property
    def ring_box(self) -> Box:
        return self.interior.grow(1)

    def views(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window ``k``'s ``abskg``, ``sigma_t4`` and ``cell_type``, shaped
        like its box: views, so a write lands in the stack."""
        cells, extent = self.slots[k]
        return (
            self.abskg[cells].reshape(extent),
            self.sigma_t4[cells].reshape(extent),
            self.cell_type[cells].reshape(extent),
        )

    def cell_center(self, cell: np.ndarray) -> np.ndarray:
        cell = np.asarray(cell, dtype=np.float64)
        return np.asarray(self.anchor) + (cell + 0.5) * np.asarray(self.dx)

    @cached_property
    def emis(self) -> np.ndarray:
        """sigma_t4 / pi, the emission a step gathers (0 at the sink)."""
        return self.sigma_t4 * _INV_PI

    @cached_property
    def wall(self) -> np.ndarray:
        """True on a wall or intrusion cell (False at the sink)."""
        return self.cell_type != CellType.FLOW

    def bands(self, model) -> "LevelFields":
        """The stack the bands of a spectral ``model`` march: window
        ``b * K + k`` is band ``b`` of window ``k``, a pointwise transform
        of this stack's cells written band by band.

        Interior (FLOW) kappa scales by the band's kappa scale; surface
        cells (wall ring and intrusions, where ``abskg`` holds emissivity)
        multiply by the tabulated band emissivity at the local surface
        temperature. ``sigma_t4`` is deliberately untouched: emission
        band-weighting cancels against the Planck importance sampling.
        """
        n, nb = self.sink, model.nbands
        out = LevelFields(self.interior, self.dx, self.anchor, self.boxes * nb)
        for band_rows, level in zip(
            (out.abskg, out.sigma_t4, out.cell_type), (self.abskg, self.sigma_t4, self.cell_type)
        ):
            band_rows[:n * nb].reshape(nb, n)[...] = level[:n]  # each band a copy first
        flow = self.cell_type[:n] == CellType.FLOW
        if not model.emissivity.is_gray:
            surf = ~flow
            t_surf = (self.sigma_t4[:n][surf] / SIGMA_SB) ** 0.25
        for b, abskg in enumerate(out.abskg[:n * nb].reshape(nb, n)):
            scale = float(model.kappa_scales[b])
            if scale != 1.0:
                abskg[flow] *= scale
            if not model.emissivity.is_gray:
                abskg[surf] *= model.emissivity.band_values(b, t_surf)
        return out

    def cells(self, boxes: Sequence[Optional[Box]]) -> np.ndarray:
        """The stack offsets of the cells of ``boxes[k]``, a box inside
        window ``k`` (None: no cells), box after box, each in C order;
        one pass a run of equal extents."""
        picked = [(k, box) for k, box in enumerate(boxes) if box is not None]
        for k, box in picked:
            if not self.boxes[k].contains_box(box):
                raise GridError(f"box {box} outside window {self.boxes[k]}")
        out = np.empty(sum(box.volume for _, box in picked), dtype=np.intp)
        end = 0
        for extent, run in groupby(picked, key=lambda kb: kb[1].extent):
            run = list(run)
            s0, s1, origin = self.geometry[:, [k for k, _ in run]]
            lo = np.array([box.lo for _, box in run], dtype=np.float64).T
            first = origin + lo[0] * s0 + lo[1] * s1 + lo[2]  # offset of each box's lo
            x, y, z = np.indices(extent, dtype=np.float64).reshape(3, 1, -1)
            block = out[end:end + first.size * x.size].reshape(first.size, x.size)
            # whole numbers, exact in floats
            block[...] = first[:, None] + s0[:, None] * x + s1[:, None] * y + z
            end += block.size
        return out

    def position_to_cell(
        self, pos: np.ndarray, nudge_dir: np.ndarray = None, out: np.ndarray = None
    ) -> np.ndarray:
        """Cells containing physical positions, one axis a row.

        ``pos`` is ``(3, n)``: row ``a`` holds the positions' ``a``
        coordinates. Returns ``(3, n)`` float rows of whole cell indices
        (the floor, kept as a float so the DDA set-up takes the next face
        from it without a round trip through ints), written into ``out``
        when given, with no temporaries. ``nudge_dir``, when
        given (``(3, n)`` as well), bumps positions a relative 1e-9 of a
        cell along the ray so a position lying exactly on a cell face
        lands in the *downstream* cell — required at level-handoff where
        fine-patch boundaries coincide with coarse faces.
        """
        cell = np.empty(np.shape(pos)) if out is None else out
        for a in range(3):
            c = cell[a]
            if nudge_dir is None:
                np.subtract(pos[a], self.anchor[a], out=c)
            else:
                np.multiply(nudge_dir[a], 1e-9 * self.dx[a], out=c)
                c += pos[a]
                c -= self.anchor[a]
            c /= self.dx[a]
            np.floor(c, out=c)
        return cell
