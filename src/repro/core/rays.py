"""Ray generation for RMCRT.

Reverse Monte Carlo traces rays *backwards* from the cell where the
divergence of the heat flux is wanted; directions are sampled
isotropically over the full sphere and origins are either the cell
centre ("CCRays" in Uintah) or jittered uniformly within the cell.
Streams are keyed per patch (see :mod:`repro.util.rng`) so results are
independent of domain decomposition and execution order.

A kernel launch draws the rays of all its patches in one call
(:func:`generate_patch_rays`): each patch still draws from its own
stream, but every transform from uniform draws to positions and unit
vectors runs once over the launch, into the by-axis ``(3, n)`` rows the
DDA set-up reads. One patch is the K = 1 case of the same call. Wall
faces are the other ray source (:func:`generate_face_rays`).

A source's draw is consecutive segments of its stream — the jitter
(3n doubles; none for centred origins), then the two direction draws
(n each) — so a launch may also draw a range of a source's rays: it
reads each segment through its own cursor (:func:`draw_cursors`), and
the source's rays are byte-identical however they are cut.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.core.fields import LevelFields
from repro.util.errors import ReproError
from repro.util.rng import advance

#: (axis, side) for the six walls; side 0 = low face, 1 = high face
WALLS: List[Tuple[int, int]] = [(a, s) for a in range(3) for s in (0, 1)]


def _orient(rows: np.ndarray) -> np.ndarray:
    """Unit vectors uniform on the sphere, in place in ``(3, n)`` rows.

    On entry row 2 holds the U[0, 1) draws for cos(theta) and row 0 those
    for phi; on exit the rows hold (sin cos phi, sin sin phi, cos theta):
    cos(theta) ~ U(-1, 1), phi ~ U(0, 2*pi), the exact scheme Uintah's
    findRayDirection uses.
    """
    cos_theta, phi = rows[2], rows[0]
    cos_theta *= 2.0
    np.subtract(1.0, cos_theta, out=cos_theta)
    phi *= 2.0 * np.pi
    sin_theta = np.square(cos_theta)
    np.subtract(1.0, sin_theta, out=sin_theta)
    np.maximum(sin_theta, 0.0, out=sin_theta)
    np.sqrt(sin_theta, out=sin_theta)
    np.sin(phi, out=rows[1])
    np.cos(phi, out=phi)
    rows[:2] *= sin_theta
    return rows


def _origins(
    fields: LevelFields,
    cells: np.ndarray,
    rays_per_cell: int,
    jitter: Optional[np.ndarray],
    picked: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(3, m * rays_per_cell)`` origins, grouped by cell, of the ``(3, m)``
    float cell rows ``cells`` (overwritten with the cells' low faces).

    ``jitter`` is the ``(n, 3)`` U[0, 1) draw, or None for cell centres.
    The low faces are taken once a cell and repeated for its rays; of
    those, ``picked`` (when given) are the rays drawn.
    """
    dx = np.array(fields.dx)[:, None]
    cells *= dx
    cells += np.array(fields.anchor)[:, None]  # the cells' low faces
    if jitter is None:
        cells += 0.5 * dx
    origins = np.repeat(cells, rays_per_cell, axis=1) if rays_per_cell > 1 else cells
    if picked is not None:
        origins = origins.take(picked, axis=1)
    if jitter is not None:
        for a in range(3):
            origins[a] += jitter[:, a] * fields.dx[a]
    return origins


def isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit vectors uniform on the sphere, as ``(n, 3)``: the
    transposed view of by-axis rows. cos(theta) is drawn before phi."""
    rows = np.empty((3, n))
    rng.random(out=rows[2])
    rng.random(out=rows[0])
    return _orient(rows).T


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


def _cell_rows(boxes: Sequence[Box], ranges: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``(3, m)`` float cell indices of cells ``ranges[k]`` of each box,
    box after box, in the order of :func:`region_cells`; one add per run
    of whole boxes of equal extents."""
    rows = np.empty((3, sum(stop - start for start, stop in ranges)))
    end = 0
    for (extent, whole), run in groupby(
        zip(boxes, ranges), key=lambda br: (br[0].extent, br[1] == (0, br[0].volume))
    ):
        run = list(run)
        if whole:
            lo = np.array([box.lo for box, _ in run], dtype=np.float64).T[:, :, None]
            volume = int(np.prod(extent))
            block = rows[:, end:end + lo.shape[1] * volume].reshape(3, lo.shape[1], volume)
            np.add(np.indices(extent, dtype=np.float64).reshape(3, 1, volume), lo, out=block)
            end += block.shape[1] * volume
            continue
        for box, (start, stop) in run:
            block = rows[:, end:end + stop - start]
            block[...] = np.unravel_index(np.arange(start, stop), extent)
            block += np.array(box.lo, dtype=np.float64)[:, None]
            end += stop - start
    return rows


def draw_cursors(
    rng: np.random.Generator, n: int, jittered: bool = True
) -> Tuple[np.random.Generator, ...]:
    """A cursor for each segment of the draw of a source of ``n`` rays
    from ``rng`` — the jitter (3n doubles) unless not ``jittered``, then
    the two direction draws (n each) — for drawing it a range of rays at
    a time. The last cursor is ``rng`` itself, so reading every range
    leaves it where the whole draw does; the others are copies, each
    moved to its segment (:func:`repro.util.rng.advance`)."""
    *heads, last = [0, 3 * n, 4 * n] if jittered else [0, n]
    bg = rng.bit_generator
    copies = []
    for offset in heads:
        copy = type(bg)(0)
        copy.state = bg.state
        copies.append(advance(np.random.Generator(copy), offset))
    return (*copies, advance(rng, last))


def _segments(stream, count: int) -> Tuple[np.random.Generator, ...]:
    """A source's ``count`` segment streams: a generator is read whole,
    its segments one after another (the draw's own order); a tuple is
    :func:`draw_cursors`' cursors, one a segment."""
    return stream if isinstance(stream, tuple) else (stream,) * count


def generate_patch_rays(
    fields: LevelFields,
    boxes: Sequence[Box],
    rays_per_cell: int,
    rngs: Sequence,
    centered_origins: bool = False,
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(origins, directions) for every cell of every box of one launch.

    ``boxes`` are cells of ``fields``' level (its spacing and anchor);
    box ``k`` draws from ``rngs[k]``: the ``(n, 3)`` jitter (unless
    ``centered_origins``), then cos(theta), then phi — Uintah's per-ray
    draw order, and exactly 5n doubles (2n centred) of each stream. The
    transforms then run once over the launch. Both arrays have
    ``sum(volume) * rays_per_cell`` rows, box after box, grouped by cell;
    each is the ``(n, 3)`` transposed view of ``(3, n)`` by-axis rows.

    ``ranges[k]``, when given, is the ``[start, stop)`` of box ``k``'s
    rays drawn (ray ``r`` is cell ``r // rays_per_cell``, cells in
    :func:`region_cells` order); a box drawn in part reads its segments
    through ``rngs[k]`` = :func:`draw_cursors`, range after range in
    order, and its rays are those of the whole draw.
    """
    if ranges is None:
        ranges = [(0, box.volume * rays_per_cell) for box in boxes]
    counts = [stop - start for start, stop in ranges]
    n = sum(counts)
    # the cells the ranges touch; a range cut inside a cell picks its rays
    spans = [(start // rays_per_cell, -(-stop // rays_per_cell)) for start, stop in ranges]
    picked = None
    if any(start % rays_per_cell or stop % rays_per_cell for start, stop in ranges):
        firsts = np.cumsum([0] + [(c1 - c0) * rays_per_cell for c0, c1 in spans[:-1]])
        picked = np.concatenate([
            np.arange(count) + first + start % rays_per_cell
            for (start, _), count, first in zip(ranges, counts, firsts)
        ])
    jitter = None if centered_origins else np.empty((n, 3))
    directions = np.empty((3, n))
    end = 0
    for count, stream in zip(counts, rngs):
        rays = slice(end, end + count)
        *jittered, cos_theta, phi = _segments(stream, 2 if centered_origins else 3)
        if jittered:
            jittered[0].random(out=jitter[rays])
        cos_theta.random(out=directions[2, rays])
        phi.random(out=directions[0, rays])
        end += count
    origins = _origins(fields, _cell_rows(boxes, spans), rays_per_cell, jitter, picked)
    return origins.T, _orient(directions).T


def cosine_hemisphere_directions(rng, n: int, axis: int, side: int) -> np.ndarray:
    """``n`` cosine-weighted directions about the inward wall normal.

    For the low face the inward normal is +axis; for the high face it
    is -axis. Malley's method: uniform disk lift. ``rng`` draws the
    radii, then the angles (or is a pair of cursors, one a draw).
    """
    radius, angle = _segments(rng, 2)
    r = np.sqrt(radius.random(n))
    phi = 2.0 * np.pi * angle.random(n)
    dirs = np.empty((n, 3))
    u, v = [d for d in range(3) if d != axis]
    dirs[:, u] = r * np.cos(phi)
    dirs[:, v] = r * np.sin(phi)
    w = np.sqrt(np.maximum(0.0, 1.0 - r * r))
    dirs[:, axis] = w if side == 0 else -w
    return dirs


def checked_rays_per_face(rays_per_face: int) -> int:
    """``rays_per_face`` as an int, refused below one (a face's flux is a mean)."""
    if rays_per_face < 1:
        raise ReproError(f"rays_per_face must be >= 1, got {rays_per_face}")
    return int(rays_per_face)


def wall_faces(
    interior: Box, box: Box, walls: Sequence[Tuple[int, int]] = WALLS
) -> List[Tuple[int, int, Box]]:
    """``(axis, side, slab)`` for each of ``walls`` that ``box`` touches:
    ``slab`` is the cells of ``box`` on that wall of ``interior``."""
    faces = []
    for axis, side in walls:
        lo, hi = list(interior.lo), list(interior.hi)
        lo[axis], hi[axis] = (lo[axis], lo[axis] + 1) if side == 0 else (hi[axis] - 1, hi[axis])
        slab = Box(tuple(lo), tuple(hi)).intersect(box)
        if not slab.empty:
            faces.append((axis, side, slab))
    return faces


def generate_face_rays(
    fields: LevelFields,
    faces: Sequence[Tuple[int, int, Box, object]],
    rays_per_face: int,
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(origins, directions) of ``rays_per_face`` rays on the wall face of
    every cell of every ``(axis, side, slab, rng)``, face after face,
    grouped by cell in :func:`region_cells` order. Each face draws from
    its ``rng`` the ``(n, 3)`` jitter (the wall axis then set on the wall
    plane, a 1e-9 of a cell inward), then the directions. ``ranges[k]``,
    when given, is the ``[start, stop)`` of face ``k``'s rays drawn, as
    in :func:`generate_patch_rays` (``rng`` then the face's
    :func:`draw_cursors` when it is drawn in part)."""
    dx, anchor = np.asarray(fields.dx), np.asarray(fields.anchor)
    if ranges is None:
        ranges = [(0, slab.volume * rays_per_face) for _, _, slab, _ in faces]
    origins, directions = [], []
    for (axis, side, slab, stream), (start, stop) in zip(faces, ranges):
        n = stop - start
        jitter, *hemisphere = _segments(stream, 3)
        first = start // rays_per_face
        cells = region_cells(slab)[first:-(-stop // rays_per_face)].astype(np.float64)
        rep = np.repeat(cells, rays_per_face, axis=0)[start - first * rays_per_face:][:n]
        pos = anchor + (rep + jitter.random((n, 3))) * dx
        plane = anchor[axis] + (slab.lo[axis] + (0.0 if side == 0 else 1.0)) * dx[axis]
        pos[:, axis] = plane + (1.0 if side == 0 else -1.0) * 1e-9 * dx[axis]
        origins.append(pos)
        directions.append(cosine_hemisphere_directions(tuple(hemisphere), n, axis, side))
    return np.concatenate(origins), np.concatenate(directions)
