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

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.box import Box
from repro.core.dda import RayBatch, march
from repro.core.fields import StackedFields
from repro.core.rays import generate_face_rays, generate_patch_rays
from repro.perf.metrics import get_metrics
from repro.util.errors import ReproError

#: rays per kernel launch, the one width. A DDA step costs a fixed ~25 us
#: of NumPy calls however few lanes it carries (EXPERIMENTS E25's fit) and
#: ~21-24 ns a row with nothing allocated a step (E30), so a rank's ready
#: patch tasks march together until their rays reach this (tiny patches
#: starve the kernel: the paper's contribution v). A full launch peaks at
#: ~327-329 bytes a lane (ROADMAP item 5's tracemalloc of one 32768-lane
#: launch), 160 of them the march's state (12 float and 5 int64 rows) and
#: scratch (a float row, and an int64 row holding the 5 int8 flag rows), as
#: ``TestStepScratch`` pins; so a launch above it is cut to it and launch
#: memory stays ~10 MiB whatever the patch size. 32768 is the fastest width
#: for a large launch, at two thirds of the memory of 65536 (EXPERIMENTS
#: E23; re-measured on the parking kernel in E25, the lean step in E28 and
#: the allocation-free step in E30).
LAUNCH_RAYS = 1 << 15


@dataclass(frozen=True)
class TraceOptions:
    """The options of one trace, the block every solver path reads (as
    Uintah's RMCRT spec is one block every trace task reads):
    ``rays_per_cell`` (nDivQRays), ``threshold`` (the transmissivity a
    ray is extinct below), ``halo`` (the fine cells a patch's ROI adds
    around it; a single-level trace has no ROI), ``reflections`` (walls
    of emissivity < 1 reflect), ``centered_origins`` (rays start at cell
    centres) and ``spectral``, a
    :class:`~repro.radiation.spectral.model.SpectralModel` that makes the
    trace wavelength-sampled (opaque here). Each rule on them is checked
    here, once, whichever path the options take.
    """

    rays_per_cell: int = 25
    threshold: float = 1e-4
    halo: int = 4
    reflections: bool = False
    centered_origins: bool = False
    spectral: object = None

    def __post_init__(self) -> None:
        if self.rays_per_cell < 1:
            raise ReproError(f"rays_per_cell must be >= 1, got {self.rays_per_cell}")
        if not 0.0 < self.threshold < 1.0:
            raise ReproError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.halo < 0:
            raise ReproError(f"halo must be >= 0, got {self.halo}")
        if self.reflections and self.spectral is not None:
            raise ReproError(
                "reflections are not supported with a spectral model "
                "(band-resolved reflections are future work)"
            )


def divq_from_sums(
    fields: StackedFields, cells: np.ndarray, sum_i_mean: np.ndarray, emission_scale: float = 1.0
) -> np.ndarray:
    """Reduce per-cell mean incoming intensity to del.q over the stack
    offsets ``cells`` (:meth:`~repro.core.fields.StackedFields.cells`):
    one launch's cells at once.

    ``emission_scale`` multiplies the cell's own emission: 1 for a gray
    solve, the Planck-mean kappa scale for a spectral one (whose
    ``sum_i_mean`` already carries the per-ray band weights). Solid
    cells (intrusions — boiler tubes and the like) are not part of the
    participating medium: their del.q is zeroed, as in Uintah.
    """
    kappa = fields.abskg.take(cells)
    st4 = fields.sigma_t4.take(cells)
    divq = 4.0 * np.pi * kappa * ((st4 * emission_scale) / np.pi - sum_i_mean)
    divq[fields.wall.take(cells)] = 0.0
    return divq


def march_chunked(
    level_fields: Sequence[StackedFields],
    origins: np.ndarray,
    directions: np.ndarray,
    roi: Union[None, Box, Sequence[Box]] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    chunk_rays: int = LAUNCH_RAYS,
    window_of: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """sum_i of every ray, marched at most ``chunk_rays`` per launch.

    ``level_fields`` is ordered coarsest-first (matching grid levels);
    rays start on the finest level restricted to ``roi`` and cascade to
    successively coarser levels when they leave it. On levels below the
    finest, rays march over the *whole* level — every coarse level spans
    the domain by construction (Section III.C). One level and no ``roi``
    is the single-level trace. A level's stack may hold several windows —
    on the finest, with ``roi`` their boxes — and ``window_of[i]`` then
    holds each ray's window on level ``i`` (see
    :func:`~repro.core.dda.march`; None for a level of one window). Rays
    are independent, so the chunk size changes memory use and nothing
    else.
    """
    if window_of is None:
        window_of = [None] * len(level_fields)
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
            window_of=None if window_of[-1] is None else window_of[-1][chunk],
        )
        # cascade: any parked ray continues on the next coarser level
        for coarse, windows in zip(level_fields[-2::-1], window_of[-2::-1]):
            if batch.parked().size == 0:
                break
            march(
                batch=batch,
                fields=coarse,
                threshold=threshold,
                reflections=reflections,
                from_handoff=True,
                window_of=None if windows is None else windows[chunk],
            )
        if batch.parked().size:
            raise ReproError(
                "rays left the coarsest level's ROI — the coarsest level "
                "must span the whole domain"
            )
        sum_i[chunk] = batch.sum_i
    return sum_i


def draw_bands(model, rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
    """The wavelength band of every ray of a launch: patch ``k``'s
    ``counts[k]`` rays drawn from ``rngs[k]``, its named spectral stream,
    by the Planck weights of ``model``. Publishes the launch's band
    census as ``spectral.rays`` (label ``band``)."""
    bands = np.concatenate([model.table.sample_bands(rng, n) for rng, n in zip(rngs, counts)])
    metrics = get_metrics()
    for band, n in enumerate(np.bincount(bands, minlength=model.nbands)):
        metrics.counter("spectral.rays", band=band).inc(int(n))
    return bands


def trace_patch_single_level(
    fields: StackedFields,
    box: Box,
    options: TraceOptions,
    rng: np.random.Generator,
    band_rng: Optional[np.random.Generator] = None,
    chunk_rays: int = LAUNCH_RAYS,
) -> np.ndarray:
    """del.q over ``box`` tracing every ray on one level (``fields``, the
    whole level stacked): the launch of one patch with no coarse levels
    and no ROI (see :func:`trace_patch_multi_level`)."""
    return trace_patch_multi_level(
        [], fields, [(box, None, rng)], options, chunk_rays,
        band_rngs=None if band_rng is None else [band_rng],
    )[0]


def trace_patch_multi_level(
    coarse_fields: Sequence[StackedFields],
    fine: StackedFields,
    patches: Sequence[Tuple[Optional[Box], Optional[Box], Optional[np.random.Generator]]],
    options: TraceOptions,
    chunk_rays: int = LAUNCH_RAYS,
    band_rngs: Optional[Sequence[np.random.Generator]] = None,
    faces: Optional[Sequence[Sequence[Tuple[int, int, Box, np.random.Generator]]]] = None,
    rays_per_face: int = 1,
):
    """del.q over fine patches using the data-onion hierarchy, the rays
    of all of them marched together (one launch when the caller kept
    them within the width; cut to ``chunk_rays`` otherwise).

    ``coarse_fields`` is ordered coarsest-first and shared, each level
    stacked whole; with none, the fine level is the only one (the
    single-level trace). ``fine`` holds the fine data of the launch, one
    window a patch (the whole level, for a launch of one patch, is the
    K = 1 case), and patch ``k`` is ``(box, roi, rng)`` in window ``k``:
    ``roi`` is the fine data the task owns: patch + halo, plus any
    adjacent wall ring (see :func:`march_chunked` for the cascade), or
    None for the whole level; its rays are drawn from its own ``rng``, so
    a patch's del.q does not depend on what it is launched with. Returns
    one del.q per patch, in order (None for a ``box`` of None: no cell
    rays), each a view of the launch's del.q, reduced in one pass
    (:func:`divq_from_sums`).

    ``faces[k]``, when given, are patch ``k``'s wall faces, the second ray
    source: ``(axis, side, slab, rng)`` marches ``rays_per_face`` rays of
    ``rng`` from the wall face of each cell of ``slab``
    (:func:`~repro.core.rays.generate_face_rays`) in the patch's window,
    and the return is ``(divqs, fluxes)``: ``fluxes[k]`` holds each face's
    incident flux, pi times its rays' mean sum_I, shaped like ``slab``.

    ``options`` are the trace's (a ``roi`` already holds their halo), for
    face rays as for cell rays. With a ``spectral`` model (its band
    table, kappa scales and surface emissivity table) every ray also
    draws a wavelength band from its patch's entry of ``band_rngs`` (face
    rays after cell rays) and marches through its band's fields on every
    level (:meth:`~repro.core.fields.StackedFields.bands`), the bands laid
    out as windows of the one launch. A
    ray lands in band ``b`` with the Planck probability ``w_b`` and
    marches against the unscaled emission (the ``w_b`` of emission and
    the ``1/w_b`` of the estimator cancel), and a cell ray's intensity is
    weighted by the band's kappa scale at the origin cell, so

        del.q[c] = 4 pi kappa[c] (pm * sigma_t4[c]/pi
                                  - mean_r kappa_scale[b(r)] * sumI_r)

    with ``pm = sum_b w_b kappa_scale[b]`` the Planck-mean scale. A face
    ray is not weighted (the wall absorbs every band): its E[sumI] =
    sum_b w_b I_b / w_b is the total incident intensity. One
    full-spectrum band of scale 1 is the gray trace, bit for bit.
    """
    rays_per_cell, spectral = options.rays_per_cell, options.spectral
    if len(patches) != len(fine.boxes):
        raise ReproError(f"{len(patches)} patches in a launch of {len(fine.boxes)} windows")
    cells = [(k, box, roi, rng) for k, (box, roi, rng) in enumerate(patches) if box is not None]
    ring = fine.ring_box
    for _, box, roi, _ in cells:
        if not fine.interior.contains_box(box):
            raise ReproError(f"patch box {box} outside fine interior {fine.interior}")
        if roi is not None and (not ring.contains_box(roi) or not roi.contains_box(box)):
            raise ReproError(f"roi {roi} must satisfy box <= roi <= fine ring box")
    if spectral is not None and (band_rngs is None or len(band_rngs) != len(patches)):
        raise ReproError("a spectral trace needs one band stream a patch")

    # one draw and one per-cell mean for the launch: each patch still
    # draws from its own stream, so its rays and its del.q do not depend
    # on what it is launched with
    origins, directions = generate_patch_rays(
        fine, [box for _, box, _, _ in cells], rays_per_cell,
        [rng for _, _, _, rng in cells], centered_origins=options.centered_origins,
    )
    volumes = [0 if box is None else box.volume for box, _, _ in patches]
    cell_rays = origins.shape[0]
    # each source's rays, patch by patch: the cells', then the wall faces'
    sources = [np.multiply(volumes, rays_per_cell)]
    all_faces = [face for patch_faces in faces or () for face in patch_faces]
    if all_faces:
        face_origins, face_directions = generate_face_rays(fine, all_faces, rays_per_face)
        origins = np.concatenate((origins.T, face_origins.T), axis=1).T
        directions = np.concatenate((directions.T, face_directions.T), axis=1).T
        sources.append([sum(s.volume for _, _, s, _ in f) * rays_per_face for f in faces])
    rois = [roi for _, roi, _ in patches]
    patch_of = None
    if len(patches) > 1:
        patch_of = np.concatenate([np.repeat(np.arange(len(patches)), n) for n in sources])
    if spectral is None:
        levels = [*coarse_fields, fine]
        window_of = [None] * len(coarse_fields) + [patch_of]
    else:
        # the bands are windows of one launch: on a coarse level window b
        # is band b of the level, on the fine level window b * K + k is
        # band b of patch k's window
        bands = np.concatenate([draw_bands(spectral, band_rngs, n) for n in sources])
        levels = [c.bands(spectral) for c in coarse_fields] + [fine.bands(spectral)]
        window_of = [bands] * len(coarse_fields)
        window_of.append(bands if patch_of is None else bands * len(patches) + patch_of)
        rois = rois * spectral.nbands
    sum_i = march_chunked(
        levels, origins, directions, roi=rois, threshold=options.threshold,
        reflections=options.reflections, chunk_rays=chunk_rays, window_of=window_of,
    )
    cell_sum_i, face_sum_i = sum_i[:cell_rays], sum_i[cell_rays:]
    emission_scale = 1.0
    if spectral is not None:
        cell_sum_i *= spectral.kappa_scales[bands[:cell_rays]]
        emission_scale = spectral.planck_mean_scale
    means = cell_sum_i.reshape(-1, rays_per_cell).mean(axis=1)
    # one reduction over the launch's cells, each patch's del.q a view of it
    divq = divq_from_sums(fine, fine.cells([box for box, _, _ in patches]), means, emission_scale)
    ends = np.cumsum(volumes)
    divqs = [
        None if box is None else divq[end - box.volume:end].reshape(box.extent)
        for (box, _, _), end in zip(patches, ends)
    ]
    if faces is None:
        return divqs
    per_face = iter(np.split(face_sum_i.reshape(-1, rays_per_face).mean(axis=1) * np.pi,
                             np.cumsum([slab.volume for _, _, slab, _ in all_faces])[:-1]))
    return divqs, [[next(per_face).reshape(slab.extent) for _, _, slab, _ in f] for f in faces]


def patch_roi(fine_interior: Box, patch_box: Box, halo: int) -> Box:
    """The fine-level region of interest for a patch task.

    patch + ``halo`` cells, clipped against the interior but keeping the
    wall ring wherever the grown box pokes out of the domain — so rays
    still terminate at true domain walls on the fine level instead of
    being handed off through them.
    """
    grown = patch_box.grow(halo)
    return grown.intersect(fine_interior.grow(1))
