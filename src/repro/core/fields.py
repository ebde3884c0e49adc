"""Level-resident field bundles the marching kernels consume.

A :class:`LevelFields` is the device-side view of one mesh level:
the three radiative-property arrays (with their one-cell wall ring)
plus the geometric metadata (spacing, anchor, array origin) the DDA
needs to convert between physical positions and array offsets. This is
exactly what the GPU DataWarehouse's level database stores once per
level and shares across all patch tasks on a GPU (paper Section III.C).
A patch task's fine data is a *window*: the same bundle with arrays
cropped to the cells the task holds, cell indices still the level's.

A :class:`StackedFields` is the form a launch marches: the raveled
arrays of one level's K windows laid end to end (the whole level is the
K = 1 case), written once — a direct solve stacks each level once, a
distributed launch writes its tasks' windows straight into the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.level import Level
from repro.radiation.constants import SIGMA_SB
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import GridError, ReproError

_INV_PI = 1.0 / np.pi


@dataclass
class LevelFields:
    """Marching view of one level's radiative properties.

    The arrays cover :attr:`box`: the level's whole ring box, or the
    ``window`` of it they were cropped to.
    """

    abskg: np.ndarray
    sigma_t4: np.ndarray
    cell_type: np.ndarray
    interior: Box
    dx: Tuple[float, float, float]
    anchor: Tuple[float, float, float]
    window: Optional[Box] = None

    def __post_init__(self) -> None:
        if self.window is not None and not self.ring_box.contains_box(self.window):
            raise GridError(f"window {self.window} escapes level ring box {self.ring_box}")
        expected = self.box.extent
        for name in ("abskg", "sigma_t4", "cell_type"):
            if tuple(getattr(self, name).shape) != expected:
                raise GridError(
                    f"{name} shape {getattr(self, name).shape} != box extent {expected}"
                )
        self.dx = tuple(float(v) for v in self.dx)
        self.anchor = tuple(float(v) for v in self.anchor)

    @property
    def ring_box(self) -> Box:
        return self.interior.grow(1)

    @property
    def box(self) -> Box:
        """The cells the arrays cover; array offset = cell index - ``box.lo``."""
        return self.window if self.window is not None else self.ring_box

    @staticmethod
    def from_properties(level: Level, props: RadiativeProperties) -> "LevelFields":
        if props.interior != level.domain_box:
            raise GridError(
                f"properties interior {props.interior} != level domain {level.domain_box}"
            )
        return LevelFields(
            abskg=props.abskg,
            sigma_t4=props.sigma_t4,
            cell_type=props.cell_type,
            interior=level.domain_box,
            dx=level.dx,
            anchor=level.anchor,
        )

    def band(self, model, band: int) -> "LevelFields":
        """The fields one wavelength band of a spectral ``model`` marches
        through: a pointwise transform, so a window's band fields are the
        window of the level's.

        Interior (FLOW) kappa scales by the band's kappa scale; surface
        cells (wall ring and intrusions, where ``abskg`` holds emissivity)
        multiply by the tabulated band emissivity at the local surface
        temperature. ``sigma_t4`` is deliberately untouched: emission
        band-weighting cancels against the Planck importance sampling.
        """
        abskg = self.abskg.copy()
        flow = self.cell_type == CellType.FLOW
        scale = float(model.kappa_scales[band])
        if scale != 1.0:
            abskg[flow] *= scale
        if not model.emissivity.is_gray:
            surf = ~flow
            t_surf = (self.sigma_t4[surf] / SIGMA_SB) ** 0.25
            abskg[surf] *= model.emissivity.band_values(band, t_surf)
        return replace(self, abskg=abskg)

    def cell_center(self, cell: np.ndarray) -> np.ndarray:
        return np.asarray(self.anchor) + (np.asarray(cell, dtype=np.float64) + 0.5) * np.asarray(self.dx)

    @property
    def nbytes(self) -> int:
        return self.abskg.nbytes + self.sigma_t4.nbytes + self.cell_type.nbytes


class StackedFields:
    """One level's data as a launch marches it: the raveled arrays of K
    windows of the level laid end to end, then one *sink* cell (no
    absorption, no emission, FLOW) where a finished lane is parked.

    Window ``k`` covers ``boxes[k]`` — a window of the level, or its
    whole ring box when ``windowed[k]`` is False — and its cells are the
    slice ``slots[k][0]`` of the stack, in C order over the box.
    ``abskg``, ``sigma_t4`` and ``cell_type`` are written once: by
    :meth:`of` from K :class:`LevelFields`, or window by window in place
    through :meth:`views`; the rows the DDA reads beside ``abskg`` are
    derived from them on first use and kept with the stack: ``emis``
    (sigma_t4 / pi) and ``wall`` (not FLOW). Write every window before the
    first march.
    """

    def __init__(
        self,
        interior: Box,
        dx: Tuple[float, float, float],
        anchor: Tuple[float, float, float],
        boxes: Sequence[Box],
        windowed: Optional[Sequence[bool]] = None,
    ) -> None:
        self.interior = interior
        self.dx = tuple(float(v) for v in dx)
        self.anchor = tuple(float(v) for v in anchor)
        self.boxes = tuple(boxes)
        self.windowed = (True,) * len(self.boxes) if windowed is None else tuple(windowed)
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

    @classmethod
    def of(cls, windows: Sequence[LevelFields]) -> "StackedFields":
        """K windows (or whole levels) of one level, copied into a stack."""
        first = windows[0]
        for w in windows:
            if (w.dx, w.anchor, w.interior) != (first.dx, first.anchor, first.interior):
                raise ReproError("the windows of one launch must be of one level")
        stack = cls(
            first.interior, first.dx, first.anchor,
            [w.box for w in windows], [w.window is not None for w in windows],
        )
        for k, w in enumerate(windows):
            for view, data in zip(stack.views(k), (w.abskg, w.sigma_t4, w.cell_type)):
                view[...] = data
        return stack

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

    def window(self, k: int) -> LevelFields:
        """Window ``k`` as a :class:`LevelFields` over views of the stack."""
        abskg, sigma_t4, cell_type = self.views(k)
        return LevelFields(
            abskg=abskg, sigma_t4=sigma_t4, cell_type=cell_type, interior=self.interior,
            dx=self.dx, anchor=self.anchor, window=self.boxes[k] if self.windowed[k] else None,
        )

    @cached_property
    def emis(self) -> np.ndarray:
        """sigma_t4 / pi, the emission a step gathers (0 at the sink)."""
        return self.sigma_t4 * _INV_PI

    @cached_property
    def wall(self) -> np.ndarray:
        """True on a wall or intrusion cell (False at the sink)."""
        return self.cell_type != CellType.FLOW

    def bands(self, model) -> "StackedFields":
        """The stack the bands of a spectral ``model`` march: window
        ``b * K + k`` is band ``b`` of window ``k`` (:meth:`LevelFields.band`)."""
        windows = [self.window(k) for k in range(len(self.boxes))]
        return StackedFields.of([w.band(model, b) for b in range(model.nbands) for w in windows])

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
