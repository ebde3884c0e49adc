"""Boundary (wall) incident-flux calculation — the virtual radiometer.

The quantity the CCMSC boiler designers actually need is the radiative
heat flux to the walls (paper Section III.A). RMCRT computes it with
the same reverse trick used for del.q: from a point on the wall, trace
rays *into* the domain over the inward hemisphere with cosine-weighted
importance sampling, so the incident flux is

    q_in = integral over hemisphere of I(s) (n . s) dOmega
         = pi * E[ sumI ]        (for cosine-sampled directions).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.grid.box import Box
from repro.core.fields import LevelFields
from repro.core.kernels import march_chunked
from repro.core.rays import region_cells
from repro.util.errors import ReproError

#: (axis, side) for the six walls; side 0 = low face, 1 = high face
WALLS: List[Tuple[int, int]] = [(a, s) for a in range(3) for s in (0, 1)]


def cosine_hemisphere_directions(
    rng: np.random.Generator, n: int, axis: int, side: int
) -> np.ndarray:
    """``n`` cosine-weighted directions about the inward wall normal.

    For the low face the inward normal is +axis; for the high face it
    is -axis. Malley's method: uniform disk lift.
    """
    r = np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    u = r * np.cos(phi)
    v = r * np.sin(phi)
    w = np.sqrt(np.maximum(0.0, 1.0 - r * r))
    dirs = np.empty((n, 3))
    other = [d for d in range(3) if d != axis]
    dirs[:, axis] = w if side == 0 else -w
    dirs[:, other[0]] = u
    dirs[:, other[1]] = v
    return dirs


class VirtualRadiometer:
    """Monte Carlo incident-flux estimator on domain wall faces."""

    def __init__(
        self,
        rays_per_face: int = 100,
        threshold: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if rays_per_face < 1:
            raise ReproError("rays_per_face must be >= 1")
        self.rays_per_face = int(rays_per_face)
        self.threshold = float(threshold)
        self.seed = int(seed)

    def incident_flux(
        self,
        fields: LevelFields,
        axis: int,
        side: int,
        face_box: Box = None,
    ) -> np.ndarray:
        """Incident flux on each boundary face of one wall.

        ``face_box`` (a 2-D slab of interior cells adjacent to the
        wall, default: the whole wall) selects which faces to sample.
        Returns the flux per face, shaped like the slab with the wall
        axis squeezed out.
        """
        if (axis, side) not in WALLS:
            raise ReproError(f"invalid wall ({axis}, {side})")
        interior = fields.interior
        slab_lo = list(interior.lo)
        slab_hi = list(interior.hi)
        if side == 0:
            slab_hi[axis] = slab_lo[axis] + 1
        else:
            slab_lo[axis] = slab_hi[axis] - 1
        slab = Box(tuple(slab_lo), tuple(slab_hi))
        if face_box is not None:
            slab = slab.intersect(face_box)
            if slab.empty:
                raise ReproError("face_box selects no wall faces")

        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(axis, side))
        )
        return incident_flux_multilevel(
            [fields], axis, side, slab, self.rays_per_face, rng,
            threshold=self.threshold,
        )

    def all_walls(self, fields: LevelFields) -> dict:
        """Incident flux arrays for all six walls, keyed by (axis, side)."""
        return {
            (a, s): self.incident_flux(fields, a, s) for a, s in WALLS
        }


def incident_flux_multilevel(
    level_fields,
    axis: int,
    side: int,
    face_box: Box,
    rays_per_face: int,
    rng: np.random.Generator,
    roi: Box = None,
    threshold: float = 1e-4,
) -> np.ndarray:
    """Multi-level radiometer: wall rays march the fine ROI then
    cascade to the coarse levels, exactly like the del.q rays.

    ``level_fields`` is ordered coarsest-first; ``face_box`` selects the
    wall-adjacent interior cells of the finest level whose faces are
    sampled. Returns the incident flux per face, shaped like the slab
    with the wall axis squeezed out.
    """
    fine = level_fields[-1]
    if (axis, side) not in WALLS:
        raise ReproError(f"invalid wall ({axis}, {side})")
    if face_box.empty:
        raise ReproError("face_box selects no wall faces")

    dx = np.asarray(fine.dx)
    anchor = np.asarray(fine.anchor)
    # ray origins: jittered over each face, exactly on the wall plane
    cells = region_cells(face_box)
    m = cells.shape[0]
    n = m * rays_per_face
    rep = np.repeat(cells.astype(np.float64), rays_per_face, axis=0)
    jitter = rng.random((n, 3))
    pos = anchor + (rep + jitter) * dx
    # clamp the wall axis onto the face plane, nudged one ulp inward
    plane = anchor[axis] + (face_box.lo[axis] + (0.0 if side == 0 else 1.0)) * dx[axis]
    inward = 1.0 if side == 0 else -1.0
    pos[:, axis] = plane + inward * 1e-9 * dx[axis]
    dirs = cosine_hemisphere_directions(rng, n, axis, side)

    sum_i = march_chunked(level_fields, pos, dirs, roi=roi, threshold=threshold)
    per_face = sum_i.reshape(m, rays_per_face).mean(axis=1)
    shape = [e for d, e in enumerate(face_box.extent) if d != axis]
    return (np.pi * per_face).reshape(shape)
