"""Patch-level RMCRT "device kernels".

These are the batch entry points the GPU scheduler launches per patch
task: trace all rays for every cell of a patch region and reduce them
to the divergence of the heat flux,

    del.q[c] = 4 pi kappa[c] (sigma_t4[c] / pi - mean_r sumI_r(c)).

Every launch has one width, :data:`LAUNCH_RAYS`: patch tasks smaller
than it march together until they fill it, a patch larger than it is cut
to it — the Python analogue of sizing a CUDA launch so that it keeps the
device busy and its working set still fits the K20X's 6 GB (paper
Section III.C, contributions ii and v).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.core.dda import RayBatch, march
from repro.core.fields import LevelFields
from repro.core.rays import generate_patch_rays
from repro.util.errors import ReproError

#: rays per kernel launch, the one width. A DDA step costs a fixed ~30-40
#: us of NumPy calls however few lanes it carries (and ~21-24 ns a row,
#: with nothing allocated a step), so a rank's ready patch tasks march
#: together until their rays reach this (tiny patches starve the kernel:
#: the paper's contribution v); a lane in flight holds ~476 bytes, 152 of
#: them the launch's state (12 float and 5 int rows) and scratch (a float
#: row and 5 int8 rows), so a launch above it is cut to it and launch memory
#: stays ~16 MB whatever the patch size. 32768 is the fastest width for a
#: large launch, at two thirds of the memory of 65536 (EXPERIMENTS E23;
#: re-measured on the parking kernel in E25, the lean step in E28 and the
#: allocation-free step in E30).
LAUNCH_RAYS = 1 << 15


def divq_from_sums(
    fields: LevelFields, box: Box, sum_i_mean: np.ndarray, emission_scale: float = 1.0
) -> np.ndarray:
    """Reduce per-cell mean incoming intensity to del.q over ``box``.

    ``emission_scale`` multiplies the cell's own emission: 1 for a gray
    solve, the Planck-mean kappa scale for a spectral one (whose
    ``sum_i_mean`` already carries the per-ray band weights). Solid
    cells (intrusions — boiler tubes and the like) are not part of the
    participating medium: their del.q is zeroed, as in Uintah.
    """
    sl = box.slices(origin=fields.box.lo)
    kappa = fields.abskg[sl]
    st4 = fields.sigma_t4[sl]
    mean = sum_i_mean.reshape(box.extent)
    divq = 4.0 * np.pi * kappa * ((st4 * emission_scale) / np.pi - mean)
    solid = fields.cell_type[sl] != CellType.FLOW
    if solid.any():
        divq = np.where(solid, 0.0, divq)
    return divq


def march_chunked(
    level_fields: Sequence[Union[LevelFields, Sequence[LevelFields]]],
    origins: np.ndarray,
    directions: np.ndarray,
    roi: Union[None, Box, Sequence[Box]] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    chunk_rays: int = LAUNCH_RAYS,
    window_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """sum_i of every ray, marched at most ``chunk_rays`` per launch.

    ``level_fields`` is ordered coarsest-first (matching grid levels);
    rays start on the finest level restricted to ``roi`` and cascade to
    successively coarser levels when they leave it. On levels below the
    finest, rays march over the *whole* level — every coarse level spans
    the domain by construction (Section III.C). One level and no ``roi``
    is the single-level trace. The finest entry may be a sequence of
    windows with ``roi`` their boxes and ``window_of`` each ray's window
    (see :func:`~repro.core.dda.march`). Rays are independent, so the
    chunk size changes memory use and nothing else.
    """
    sum_i = np.empty(origins.shape[0])
    stride = max(1, chunk_rays)
    for start in range(0, sum_i.size, stride):
        chunk = slice(start, start + stride)
        batch = RayBatch.fresh(origins[chunk], directions[chunk])
        march(
            batch=batch,
            fields=level_fields[-1],
            roi=roi,
            threshold=threshold,
            reflections=reflections,
            window_of=None if window_of is None else window_of[chunk],
        )
        # cascade: any parked ray continues on the next coarser level
        for coarse in reversed(level_fields[:-1]):
            if batch.parked().size == 0:
                break
            march(
                batch=batch,
                fields=coarse,
                threshold=threshold,
                reflections=reflections,
                from_handoff=True,
            )
        if batch.parked().size:
            raise ReproError(
                "rays left the coarsest level's ROI — the coarsest level "
                "must span the whole domain"
            )
        sum_i[chunk] = batch.sum_i
    return sum_i


def trace_patch_single_level(
    fields: LevelFields,
    box: Box,
    rays_per_cell: int,
    rng: np.random.Generator,
    threshold: float = 1e-4,
    reflections: bool = False,
    centered_origins: bool = False,
    chunk_rays: int = LAUNCH_RAYS,
) -> np.ndarray:
    """del.q over ``box`` tracing every ray on one level.

    ``box`` must lie inside the level interior. Rays are generated from
    ``rng`` in cell order.
    """
    if not fields.interior.contains_box(box):
        raise ReproError(f"patch box {box} outside level interior {fields.interior}")
    if rays_per_cell < 1:
        raise ReproError(f"rays_per_cell must be >= 1, got {rays_per_cell}")

    origins, directions = generate_patch_rays(
        fields, [box], rays_per_cell, [rng], centered_origins=centered_origins
    )
    sum_i = march_chunked(
        [fields], origins, directions,
        threshold=threshold, reflections=reflections, chunk_rays=chunk_rays,
    )
    return divq_from_sums(fields, box, sum_i.reshape(-1, rays_per_cell).mean(axis=1))


def trace_patch_multi_level(
    coarse_fields: Sequence[LevelFields],
    patches: Sequence[Tuple[LevelFields, Box, Box, np.random.Generator]],
    rays_per_cell: int,
    threshold: float = 1e-4,
    reflections: bool = False,
    centered_origins: bool = False,
    chunk_rays: int = LAUNCH_RAYS,
) -> List[np.ndarray]:
    """del.q over fine patches using the data-onion hierarchy, the rays
    of all of them marched together (one launch when the caller kept
    them within the width; cut to ``chunk_rays`` otherwise).

    ``coarse_fields`` is ordered coarsest-first and shared. Each patch
    is ``(fine, box, roi, rng)``: ``fine`` holds the fine data of the
    task (the whole level or a window of it); ``roi`` is the fine data
    the task owns: patch + halo, plus any adjacent wall ring (see
    :func:`march_chunked` for the cascade); its rays are drawn from its
    own ``rng``, so a patch's del.q does not depend on what it is
    launched with. Returns one del.q per patch, in order.
    """
    if rays_per_cell < 1:
        raise ReproError(f"rays_per_cell must be >= 1, got {rays_per_cell}")
    for fine, box, roi, _ in patches:
        if not fine.interior.contains_box(box):
            raise ReproError(f"patch box {box} outside fine interior {fine.interior}")
        if not fine.ring_box.contains_box(roi) or not roi.contains_box(box):
            raise ReproError(f"roi {roi} must satisfy box <= roi <= fine ring box")

    # one draw and one per-cell mean for the launch: each patch still
    # draws from its own stream, so its rays and its del.q do not depend
    # on what it is launched with
    origins, directions = generate_patch_rays(
        patches[0][0], [box for _, box, _, _ in patches], rays_per_cell,
        [rng for _, _, _, rng in patches], centered_origins=centered_origins,
    )
    volumes = [box.volume for _, box, _, _ in patches]
    sum_i = march_chunked(
        [*coarse_fields, [fine for fine, _, _, _ in patches]], origins, directions,
        roi=[roi for _, _, roi, _ in patches],
        threshold=threshold, reflections=reflections, chunk_rays=chunk_rays,
        window_of=(
            np.repeat(np.arange(len(patches)), np.multiply(volumes, rays_per_cell))
            if len(patches) > 1 else None
        ),
    )
    means = sum_i.reshape(-1, rays_per_cell).mean(axis=1)
    return [
        divq_from_sums(fine, box, mean)
        for (fine, box, _, _), mean in zip(patches, np.split(means, np.cumsum(volumes)[:-1]))
    ]


def patch_roi(fine_interior: Box, patch_box: Box, halo: int) -> Box:
    """The fine-level region of interest for a patch task.

    patch + ``halo`` cells, clipped against the interior but keeping the
    wall ring wherever the grown box pokes out of the domain — so rays
    still terminate at true domain walls on the fine level instead of
    being handed off through them.
    """
    grown = patch_box.grow(halo)
    return grown.intersect(fine_interior.grow(1))
