"""Patch-level RMCRT "device kernels".

These are the batch entry points the GPU scheduler launches per patch
task: trace all rays for every cell of a patch region and reduce them
to the divergence of the heat flux,

    del.q[c] = 4 pi kappa[c] (sigma_t4[c] / pi - mean_r sumI_r(c)).

Every launch has one width, :data:`LAUNCH_RAYS`: patch tasks smaller
than it march together until they fill it, a trace larger than it is cut
to it — the Python analogue of sizing a CUDA launch so that it keeps the
device busy and its working set still fits the K20X's 6 GB (paper
Section III.C, contributions ii and v). A trace holds one launch, not
its patches' rays: each launch is drawn, marched and reduced to per-cell
means before the next is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.grid.box import Box
from repro.core.dda import RayBatch, march
from repro.core.fields import LevelFields
from repro.core.rays import draw_cursors, generate_face_rays, generate_patch_rays
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
#: ``TestStepScratch`` pins; so a trace above it is drawn, marched and
#: reduced a launch at a time, and holds ~10 MiB whatever its patch size
#: and rays a cell (EXPERIMENTS E39). 32768 is the fastest width
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
    fields: LevelFields, cells: np.ndarray, sum_i_mean: np.ndarray, emission_scale: float = 1.0
) -> np.ndarray:
    """Reduce per-cell mean incoming intensity to del.q over the stack
    offsets ``cells`` (:meth:`~repro.core.fields.LevelFields.cells`):
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


def march_launch(
    level_fields: Sequence[LevelFields],
    origins: np.ndarray,
    directions: np.ndarray,
    rois: Sequence[Optional[Box]],
    window_of: Sequence[Optional[np.ndarray]],
    threshold: float = 1e-4,
    reflections: bool = False,
) -> np.ndarray:
    """sum_i of every ray of one launch.

    ``level_fields`` is ordered coarsest-first (matching grid levels);
    rays start on the finest level restricted to ``rois`` (one a window)
    and cascade to successively coarser levels when they leave them. On
    levels below the finest, rays march over the *whole* level — every
    coarse level spans the domain by construction (Section III.C). One
    level and no ROI is the single-level trace. ``window_of[i]`` holds
    each ray's window on level ``i`` (see :func:`~repro.core.dda.march`;
    None for a level of one window).
    """
    batch = RayBatch.fresh(origins, directions)
    march(
        batch=batch, fields=level_fields[-1], roi=rois, threshold=threshold,
        reflections=reflections, window_of=window_of[-1],
    )
    # cascade: any parked ray continues on the next coarser level
    for coarse, windows in zip(level_fields[-2::-1], window_of[-2::-1]):
        if batch.parked().size == 0:
            break
        march(
            batch=batch, fields=coarse, threshold=threshold, reflections=reflections,
            from_handoff=True, window_of=windows,
        )
    if batch.parked().size:
        raise ReproError(
            "rays left the coarsest level's ROI — the coarsest level "
            "must span the whole domain"
        )
    return batch.sum_i


def _launches(sizes: Sequence[int], chunk_rays: int):
    """A trace's launches: ``sizes[s]`` is source ``s``'s rays, in trace
    order; each launch is a list of ``(s, start, stop)`` ray ranges, the
    trace's next ``chunk_rays`` rays (the last launch fewer)."""
    launch, room = [], max(1, chunk_rays)
    for s, rays in enumerate(sizes):
        start = 0
        while start < rays:
            stop = min(rays, start + room)
            launch.append((s, start, stop))
            room -= stop - start
            start = stop
            if room == 0:
                yield launch
                launch, room = [], max(1, chunk_rays)
    if launch:
        yield launch


class _UnitMeans:
    """The per-unit (cell or face) means of a trace's ray sums, taken a
    launch at a time: a unit whose rays a launch's end cuts carries its
    sums into the next launch's."""

    def __init__(self, units: int, rays_per_unit: int) -> None:
        self.means = np.empty(units)
        self.rays_per_unit = rays_per_unit
        self.end = 0
        self.carry = np.empty(0)

    def add(self, sums: np.ndarray) -> None:
        if self.carry.size:
            sums = np.concatenate((self.carry, sums))
        per_unit = self.rays_per_unit
        units = sums.size // per_unit
        whole = sums[:units * per_unit].reshape(-1, per_unit)
        self.means[self.end:self.end + units] = whole.mean(axis=1)
        self.end += units
        self.carry = sums[units * per_unit:].copy()


def draw_bands(model, rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
    """The wavelength band of every ray of a launch: ``counts[k]`` rays
    drawn from ``rngs[k]``, their patch's named spectral stream, by the
    Planck weights of ``model``. Publishes the launch's band
    census as ``spectral.rays`` (label ``band``)."""
    bands = np.concatenate([model.table.sample_bands(rng, n) for rng, n in zip(rngs, counts)])
    metrics = get_metrics()
    for band, n in enumerate(np.bincount(bands, minlength=model.nbands)):
        metrics.counter("spectral.rays", band=band).inc(int(n))
    return bands


def trace_patch_single_level(
    fields: LevelFields,
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
    coarse_fields: Sequence[LevelFields],
    fine: LevelFields,
    patches: Sequence[Tuple[Optional[Box], Optional[Box], Optional[np.random.Generator]]],
    options: TraceOptions,
    chunk_rays: int = LAUNCH_RAYS,
    band_rngs: Optional[Sequence[np.random.Generator]] = None,
    faces: Optional[Sequence[Sequence[Tuple[int, int, Box, np.random.Generator]]]] = None,
    rays_per_face: int = 1,
):
    """del.q over fine patches using the data-onion hierarchy, the rays
    of all of them marched together: one launch when the caller kept
    them within the width; otherwise launches of ``chunk_rays``, each
    drawn, marched and reduced before the next is drawn. A patch's rays
    cut by a launch's end are read through cursors into its streams
    (:func:`~repro.core.rays.draw_cursors`), so its rays, its del.q and
    where its streams end do not depend on the cut.

    ``coarse_fields`` is ordered coarsest-first and shared, each level
    stacked whole; with none, the fine level is the only one (the
    single-level trace). ``fine`` holds the fine data of the launch, one
    window a patch (the whole level, for a launch of one patch, is the
    K = 1 case), and patch ``k`` is ``(box, roi, rng)`` in window ``k``:
    ``roi`` is the fine data the task owns: patch + halo, plus any
    adjacent wall ring (see :func:`march_launch` for the cascade), or
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
    level (:meth:`~repro.core.fields.LevelFields.bands`), the bands laid
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

    # the trace's ray sources, in launch order: each patch's cells, then
    # each patch's wall faces; a source is (patch, what it draws from,
    # its rays, its stream)
    all_faces = [(k, face) for k, patch_faces in enumerate(faces or ()) for face in patch_faces]
    sources = [(k, box, box.volume * rays_per_cell, rng) for k, box, _, rng in cells]
    sources += [(k, face[:3], face[2].volume * rays_per_face, face[3]) for k, face in all_faces]
    rois = [roi for _, roi, _ in patches]
    if spectral is None:
        levels = [*coarse_fields, fine]
    else:
        # the bands are windows of one launch: on a coarse level window b
        # is band b of the level, on the fine level window b * K + k is
        # band b of patch k's window
        levels = [c.bands(spectral) for c in coarse_fields] + [fine.bands(spectral)]
        rois = rois * spectral.nbands
    open_cursors = {}

    def trace_launch(launch):
        """Draw, march and weight one launch's rays (cell rays, then face
        rays). A source the launch holds whole is read straight from its
        stream; a cut one through its cursors, opened at its first range."""
        cell_part, face_part, counts, owners = [], [], [], []
        for s, start, stop in launch:
            k, item, rays, stream = sources[s]
            if stop - start < rays:
                if start == 0:
                    jittered = s >= len(cells) or not options.centered_origins
                    open_cursors[s] = draw_cursors(stream, rays, jittered)
                stream = open_cursors[s] if stop < rays else open_cursors.pop(s)
            if s < len(cells):
                cell_part.append((item, stream, (start, stop)))
            else:
                face_part.append(((*item, stream), (start, stop)))
            counts.append(stop - start)
            owners.append(k)
        boxes, streams, spans = zip(*cell_part) if cell_part else ((), (), ())
        origins, directions = generate_patch_rays(
            fine, boxes, rays_per_cell, streams,
            centered_origins=options.centered_origins, ranges=spans,
        )
        cell_rays = origins.shape[0]
        if face_part:
            # the face rays follow the cell rays' by-axis rows; neither
            # part outlives the join
            face_items, face_spans = zip(*face_part)
            origins, directions = [
                np.concatenate((cell.T, face.T), axis=1).T
                for cell, face in zip(
                    (origins, directions),
                    generate_face_rays(fine, face_items, rays_per_face, ranges=face_spans),
                )
            ]
        patch_of = np.repeat(owners, counts) if len(patches) > 1 else None
        if spectral is None:
            window_of = [None] * len(coarse_fields) + [patch_of]
        else:
            bands = draw_bands(spectral, [band_rngs[k] for k in owners], counts)
            window_of = [bands] * len(coarse_fields)
            window_of.append(bands if patch_of is None else bands * len(patches) + patch_of)
        sum_i = march_launch(
            levels, origins, directions, rois, window_of,
            threshold=options.threshold, reflections=options.reflections,
        )
        if spectral is not None:
            sum_i[:cell_rays] *= spectral.kappa_scales[bands[:cell_rays]]
        return sum_i[:cell_rays], sum_i[cell_rays:]

    # a launch at a time: its rays drawn, marched and reduced to per-cell
    # and per-face means before the next is drawn (a cell or face cut by
    # a launch's end carries its sums into the next); each patch still
    # draws from its own stream, so its rays and its del.q do not depend
    # on what it is launched with, nor on where its rays are cut
    volumes = [0 if box is None else box.volume for box, _, _ in patches]
    cell_means = _UnitMeans(sum(volumes), rays_per_cell)
    face_means = _UnitMeans(sum(face[2].volume for _, face in all_faces), rays_per_face)
    for launch in _launches([source[2] for source in sources], chunk_rays):
        cell_sum_i, face_sum_i = trace_launch(launch)
        cell_means.add(cell_sum_i)
        face_means.add(face_sum_i)
    emission_scale = 1.0 if spectral is None else spectral.planck_mean_scale
    # one reduction over the trace's cells, each patch's del.q a view of it
    divq = divq_from_sums(
        fine, fine.cells([box for box, _, _ in patches]), cell_means.means, emission_scale
    )
    ends = np.cumsum(volumes)
    divqs = [
        None if box is None else divq[end - box.volume:end].reshape(box.extent)
        for (box, _, _), end in zip(patches, ends)
    ]
    if faces is None:
        return divqs
    fluxes = face_means.means * np.pi
    per_face = iter(np.split(fluxes, np.cumsum([face[2].volume for _, face in all_faces])[:-1]))
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
