"""Ray generation for RMCRT.

Reverse Monte Carlo traces rays *backwards* from the cell where the
divergence of the heat flux is wanted; directions are sampled
isotropically over the full sphere and origins are either the cell
centre ("CCRays" in Uintah) or jittered uniformly within the cell.
Streams are keyed per patch (see :mod:`repro.util.rng`) so results are
independent of domain decomposition and execution order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.grid.box import Box
from repro.core.fields import LevelFields


def isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit vectors uniform on the sphere.

    Sampled as cos(theta) ~ U(-1, 1), phi ~ U(0, 2*pi) — the exact
    scheme Uintah's findRayDirection uses.
    """
    cos_theta = 1.0 - 2.0 * rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta ** 2))
    return np.column_stack(
        (sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta)
    )


def cell_ray_origins(
    fields: LevelFields,
    cells: np.ndarray,
    rays_per_cell: int,
    rng: np.random.Generator,
    centered: bool = False,
) -> np.ndarray:
    """Origins for ``rays_per_cell`` rays in each of ``cells`` (m, 3).

    Returns ``(m * rays_per_cell, 3)`` positions, grouped by cell
    (all rays of cell 0 first). The jitter is drawn in [0, 1), so a
    jittered origin may sit on its cell's low face: uniform in the
    half-open cell, not the open one. The jitter is one ``(n, 3)`` draw;
    the origins are computed from it one axis at a time.
    """
    cells = np.asarray(cells, dtype=np.float64)
    n = cells.shape[0] * rays_per_cell
    jitter = None if centered else rng.random((n, 3))
    origins = np.empty((n, 3))
    for a in range(3):
        dx = fields.dx[a]
        low = np.repeat(fields.anchor[a] + cells[:, a] * dx, rays_per_cell)  # the cells' low faces
        origins[:, a] = low + (0.5 * dx if centered else jitter[:, a] * dx)
    return origins


def region_cells(box: Box) -> np.ndarray:
    """All cell indices of a box as an (volume, 3) array, C order.

    Row order matches ``ndarray.reshape(-1)`` of a field over the box,
    so per-cell results scatter back with a plain reshape.
    """
    gx, gy, gz = np.meshgrid(
        np.arange(box.lo[0], box.hi[0]),
        np.arange(box.lo[1], box.hi[1]),
        np.arange(box.lo[2], box.hi[2]),
        indexing="ij",
    )
    return np.column_stack((gx.ravel(), gy.ravel(), gz.ravel()))


def generate_patch_rays(
    fields: LevelFields,
    box: Box,
    rays_per_cell: int,
    rng: np.random.Generator,
    centered_origins: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, origins, directions) for every cell of ``box``.

    ``origins``/``directions`` have ``box.volume * rays_per_cell`` rows
    grouped by cell. Direction sampling happens *after* origin sampling
    from the same stream, mirroring Uintah's per-ray draw order.
    """
    cells = region_cells(box)
    origins = cell_ray_origins(fields, cells, rays_per_cell, rng, centered=centered_origins)
    directions = isotropic_directions(rng, origins.shape[0])
    return cells, origins, directions
