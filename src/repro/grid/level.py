"""Mesh levels: one resolution of the AMR hierarchy.

A :class:`Level` owns an index-space domain box, the physical cell
spacing, and the set of patches tiling the domain. Level 0 is the
coarsest (Uintah convention); each finer level refines the one below it
by an integer refinement ratio per dimension.

For the RMCRT data-onion problems every level spans the *entire*
physical domain — the fine CFD mesh and the coarse radiation mesh cover
the same cube at different resolutions — which is what lets a ray
switch to coarse data once it leaves the fine region of interest.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box, IntVec, ivec
from repro.grid.patch import Patch
from repro.util.errors import GridError

FloatVec = Tuple[float, float, float]


class _PatchIndex:
    """Uniform bin lattice over a patch list, for overlap queries.

    Bins start at the median patch extent per axis, anchored at the
    patches' lower corner: on a regular tiling each patch is its own
    bin, and a ghost-grown region meets at most 27 of them. Every patch
    is listed, by position in the patch list, in each bin it touches, so
    any tiling is answered correctly. When a few patches dwarf the
    median, the bins are doubled until the listing is linear in the patch
    count again; such a tiling only makes some bins longer.
    """

    def __init__(self, patches: Sequence[Patch]) -> None:
        self._patches = patches
        self._bins: Dict[IntVec, List[int]] = {}
        boxes = [(pos, p.box) for pos, p in enumerate(patches) if not p.box.empty]
        if not boxes:
            return
        axes = range(3)
        self._origin = [min(b.lo[d] for _, b in boxes) for d in axes]
        top = [max(b.hi[d] for _, b in boxes) - 1 for d in axes]
        self._size = [
            sorted(b.extent[d] for _, b in boxes)[len(boxes) // 2] for d in axes
        ]
        while True:
            # lattice coordinate of the last bin on each axis
            self._last = [(top[d] - self._origin[d]) // self._size[d] for d in axes]
            listed = sum(
                len(x) * len(y) * len(z)
                for x, y, z in (self._bin_ranges(b) for _, b in boxes)
            )
            if listed <= 8 * len(boxes):
                break
            self._size = [2 * s for s in self._size]
        for pos, box in boxes:
            for key in product(*self._bin_ranges(box)):
                self._bins.setdefault(key, []).append(pos)

    def _bin_ranges(self, box: Box) -> List[range]:
        """Per axis, the lattice coordinates of the bins ``box`` (not
        empty) touches, clipped to the lattice: a region far larger than
        the level costs no more than the level."""
        return [
            range(max(0, (lo - o) // s), min(last, (hi - 1 - o) // s) + 1)
            for lo, hi, o, s, last in zip(
                box.lo, box.hi, self._origin, self._size, self._last
            )
        ]

    def intersecting(self, region: Box) -> List[Patch]:
        """The patches overlapping ``region``, in patch-list order."""
        if region.empty or not self._bins:
            return []
        bins, patches = self._bins, self._patches
        found = set()
        for key in product(*self._bin_ranges(region)):
            found.update(bins.get(key, ()))
        return [
            patches[pos] for pos in sorted(found)
            if patches[pos].box.intersects(region)
        ]


class Level:
    """One resolution level of a :class:`~repro.grid.grid.Grid`."""

    def __init__(
        self,
        index: int,
        domain_box: Box,
        dx: Sequence[float],
        anchor: Sequence[float] = (0.0, 0.0, 0.0),
        refinement_ratio: Sequence[int] = (1, 1, 1),
    ) -> None:
        if domain_box.empty:
            raise GridError("level domain box must be non-empty")
        self.index = int(index)
        self.domain_box = domain_box
        self.dx: FloatVec = tuple(float(v) for v in dx)  # type: ignore[assignment]
        if any(v <= 0 for v in self.dx):
            raise GridError(f"cell spacing must be positive, got {self.dx}")
        self.anchor: FloatVec = tuple(float(v) for v in anchor)  # type: ignore[assignment]
        #: ratio to the NEXT COARSER level (meaningless for level 0)
        self.refinement_ratio: IntVec = ivec(refinement_ratio)
        self.patches: List[Patch] = []
        self._patch_by_id: Dict[int, Patch] = {}
        #: built by the first :meth:`patches_intersecting` after a change
        self._patch_index: Optional[_PatchIndex] = None

    # ------------------------------------------------------------------
    # patches
    # ------------------------------------------------------------------
    def add_patch(self, patch: Patch) -> None:
        if patch.level_index != self.index:
            raise GridError(
                f"patch level {patch.level_index} != level index {self.index}"
            )
        if not self.domain_box.contains_box(patch.box):
            raise GridError(f"{patch} extends outside level domain {self.domain_box}")
        for existing in self.patches:
            if existing.box.intersects(patch.box):
                raise GridError(f"{patch} overlaps {existing}")
        if patch.patch_id in self._patch_by_id:
            raise GridError(f"duplicate patch id {patch.patch_id}")
        self._register_patch(patch)

    def _register_patch(self, patch: Patch) -> None:
        """Trusted registration (no overlap scan) — used by tilings that
        guarantee disjointness by construction."""
        self.patches.append(patch)
        self._patch_by_id[patch.patch_id] = patch
        self._patch_index = None

    def patch(self, patch_id: int) -> Patch:
        try:
            return self._patch_by_id[patch_id]
        except KeyError:
            raise GridError(f"no patch {patch_id} on level {self.index}") from None

    @property
    def num_patches(self) -> int:
        return len(self.patches)

    @property
    def num_cells(self) -> int:
        return self.domain_box.volume

    def is_fully_tiled(self) -> bool:
        """True when the patches exactly tile the domain box."""
        return sum(p.num_cells for p in self.patches) == self.domain_box.volume

    def patches_intersecting(self, region: Box) -> List[Patch]:
        """Patches overlapping ``region``, in :attr:`patches` order."""
        if self._patch_index is None:
            self._patch_index = _PatchIndex(self.patches)
        return self._patch_index.intersecting(region)

    def containing_patch(self, cell: Sequence[int]) -> Optional[Patch]:
        for p in self.patches:
            if p.box.contains_point(cell):
                return p
        return None

    # ------------------------------------------------------------------
    # physical <-> index space
    # ------------------------------------------------------------------
    def cell_position(self, cell: Sequence[int]) -> np.ndarray:
        """Physical position of a cell centre."""
        c = ivec(cell)
        return np.array(
            [self.anchor[d] + (c[d] + 0.5) * self.dx[d] for d in range(3)]
        )

    def cell_index(self, position: Sequence[float]) -> IntVec:
        """Cell containing a physical point (points on faces round down)."""
        return tuple(
            int(np.floor((float(position[d]) - self.anchor[d]) / self.dx[d]))
            for d in range(3)
        )  # type: ignore[return-value]

    def cell_centers(self, box: Optional[Box] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D centre-coordinate arrays (x, y, z) for ``box`` (default: domain)."""
        b = box if box is not None else self.domain_box
        return tuple(
            self.anchor[d] + (np.arange(b.lo[d], b.hi[d]) + 0.5) * self.dx[d]
            for d in range(3)
        )  # type: ignore[return-value]

    @property
    def physical_lower(self) -> np.ndarray:
        return np.array(
            [self.anchor[d] + self.domain_box.lo[d] * self.dx[d] for d in range(3)]
        )

    @property
    def physical_upper(self) -> np.ndarray:
        return np.array(
            [self.anchor[d] + self.domain_box.hi[d] * self.dx[d] for d in range(3)]
        )

    # ------------------------------------------------------------------
    # level-to-level index mapping
    # ------------------------------------------------------------------
    def map_cell_to_coarser(self, cell: Sequence[int]) -> IntVec:
        c = ivec(cell)
        r = self.refinement_ratio
        return (c[0] // r[0], c[1] // r[1], c[2] // r[2])

    def map_box_to_coarser(self, box: Box) -> Box:
        return box.coarsen(self.refinement_ratio)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        e = self.domain_box.extent
        return (
            f"Level({self.index}, {e[0]}x{e[1]}x{e[2]} cells, "
            f"{self.num_patches} patches, dx={self.dx})"
        )
