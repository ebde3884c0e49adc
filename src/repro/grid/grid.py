"""The AMR grid hierarchy.

:class:`Grid` assembles levels coarsest-first and provides the
two-level "data onion" constructor used throughout the paper's
benchmarks: a fine CFD mesh plus a coarse, domain-spanning radiation
mesh related by an integer refinement ratio (typically 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.grid.box import Box, ivec
from repro.grid.decomposition import decompose_level
from repro.grid.level import Level
from repro.util.errors import GridError


class Grid:
    """An ordered hierarchy of :class:`Level` objects, coarsest first."""

    def __init__(self, physical_lower: Sequence[float] = (0.0, 0.0, 0.0)) -> None:
        self.levels: List[Level] = []
        self.physical_lower = tuple(float(v) for v in physical_lower)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_level(
        self,
        domain_box: Box,
        dx: Sequence[float],
        refinement_ratio: Sequence[int] = (1, 1, 1),
    ) -> Level:
        """Append a level finer than all existing ones.

        ``refinement_ratio`` relates the new level to the previous
        (coarser) one and must reproduce its domain exactly: the new
        domain box refined *down* by the ratio must equal the coarser
        domain box, so both levels span the same physical region.
        """
        index = len(self.levels)
        level = Level(
            index,
            domain_box,
            dx,
            anchor=self.physical_lower,
            refinement_ratio=refinement_ratio,
        )
        if self.levels:
            coarser = self.levels[-1]
            rr = ivec(refinement_ratio)
            if any(r < 1 for r in rr):
                raise GridError(f"refinement ratio must be >= 1, got {rr}")
            if domain_box.coarsen(rr) != coarser.domain_box:
                raise GridError(
                    f"level {index} domain {domain_box} does not refine "
                    f"level {index - 1} domain {coarser.domain_box} by {rr}"
                )
            for d in range(3):
                expected = coarser.dx[d] / rr[d]
                if abs(level.dx[d] - expected) > 1e-12 * abs(expected):
                    raise GridError(
                        f"dx[{d}]={level.dx[d]} inconsistent with coarser "
                        f"dx/ratio={expected}"
                    )
        self.levels.append(level)
        return level

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, index: int) -> Level:
        try:
            return self.levels[index]
        except IndexError:
            raise GridError(f"no level {index} in grid of {len(self.levels)}") from None

    @property
    def finest_level(self) -> Level:
        if not self.levels:
            raise GridError("grid has no levels")
        return self.levels[-1]

    @property
    def total_cells(self) -> int:
        return sum(lvl.num_cells for lvl in self.levels)

    @property
    def total_patches(self) -> int:
        return sum(lvl.num_patches for lvl in self.levels)

    def all_patches(self):
        for lvl in self.levels:
            yield from lvl.patches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid({self.num_levels} levels, {self.total_cells} cells)"


def build_two_level_grid(
    fine_cells: int,
    refinement_ratio: int = 4,
    fine_patch_size: Optional[int] = None,
    coarse_patch_size: Optional[int] = None,
    physical_size: float = 1.0,
) -> Grid:
    """The paper's benchmark grid: a cube of ``fine_cells**3`` fine cells
    over a coarse radiation mesh coarser by ``refinement_ratio``.

    E.g. the LARGE problem is ``build_two_level_grid(512, 4)``: 512^3
    fine + 128^3 coarse = 136.31M cells. Patch sizes, when given, must
    divide the respective level extents.
    """
    if fine_cells % refinement_ratio != 0:
        raise GridError(
            f"fine_cells={fine_cells} not divisible by ratio={refinement_ratio}"
        )
    coarse_cells = fine_cells // refinement_ratio
    grid = Grid()
    coarse_dx = physical_size / coarse_cells
    fine_dx = physical_size / fine_cells
    coarse = grid.add_level(Box.cube(coarse_cells), (coarse_dx,) * 3)
    fine = grid.add_level(
        Box.cube(fine_cells),
        (fine_dx,) * 3,
        refinement_ratio=(refinement_ratio,) * 3,
    )
    if coarse_patch_size is not None:
        decompose_level(coarse, (coarse_patch_size,) * 3)
    if fine_patch_size is not None:
        decompose_level(fine, (fine_patch_size,) * 3, patch_id_offset=coarse.num_patches)
    return grid


def build_single_level_grid(
    cells: int,
    patch_size: Optional[int] = None,
    physical_size: float = 1.0,
) -> Grid:
    """A single fine mesh (the pre-AMR configuration the paper replaced)."""
    grid = Grid()
    level = grid.add_level(Box.cube(cells), (physical_size / cells,) * 3)
    if patch_size is not None:
        decompose_level(level, (patch_size,) * 3)
    return grid
