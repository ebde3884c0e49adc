"""Level-resident field bundles the marching kernels consume.

A :class:`LevelFields` is the device-side view of one mesh level:
the three radiative-property arrays (with their one-cell wall ring)
plus the geometric metadata (spacing, anchor, array origin) the DDA
needs to convert between physical positions and array offsets. This is
exactly what the GPU DataWarehouse's level database stores once per
level and shares across all patch tasks on a GPU (paper Section III.C).
A patch task's fine data is a *window*: the same bundle with arrays
cropped to the cells the task holds, cell indices still the level's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.level import Level
from repro.radiation.constants import SIGMA_SB
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import GridError


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

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------
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

    def cell_center(self, cell: np.ndarray) -> np.ndarray:
        return np.asarray(self.anchor) + (np.asarray(cell, dtype=np.float64) + 0.5) * np.asarray(self.dx)

    @property
    def nbytes(self) -> int:
        return self.abskg.nbytes + self.sigma_t4.nbytes + self.cell_type.nbytes
