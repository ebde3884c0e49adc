"""Wavelength-sampled spectral RMCRT tracers.

Every ray gets a Planck-sampled wavelength band and marches with that
band's optics: interior ``kappa`` scaled by the band's kappa scale,
surface emissivity multiplied by the tabulated band emissivity at the
local surface temperature. Band sampling uses importance weights: a
ray lands in band ``b`` with the Planck probability ``w_b``, marches
against the *unscaled* emission field (the ``w_b`` of emission and the
``1/w_b`` of the estimator cancel), and its incoming intensity is
weighted by ``kappa_scale[b]`` at the origin cell, so

    del.q[c] = 4 pi kappa[c] (pm * sigma_t4[c]/pi
                              - mean_r kappa_scale[b(r)] * sumI_r)

with ``pm = sum_b w_b kappa_scale[b]`` the Planck-mean scale. With one
full-spectrum band of scale 1 this degenerates *exactly* — including
the RNG draws, because band sampling uses its own named stream — to
the gray solver, the subsystem's load-bearing invariant.

Two backends share every draw and differ only in the march:

* ``vectorized`` — rays grouped by band, each group marched through
  the band's fields by the batched SoA DDA kernel (the "GPU" path);
* ``scalar`` — the per-ray reference loop (the "CPU" oracle).

Cross-validation of the two is a test *and* a CI smoke gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.cpu_kernel import march_single_ray
from repro.core.fields import LevelFields
from repro.core.kernels import divq_from_sums, march_chunked
from repro.core.rays import generate_patch_rays
from repro.core.single_level import RMCRTResult, _whole_domain_patch
from repro.grid.celltype import CellType
from repro.grid.grid import Grid
from repro.perf.metrics import get_metrics
from repro.perf.tracer import get_tracer
from repro.radiation.constants import SIGMA_SB
from repro.radiation.properties import RadiativeProperties
from repro.radiation.spectral.model import SpectralModel
from repro.util.errors import ReproError
from repro.util.rng import RandomStreams
from repro.util.timing import TimerRegistry

#: the named RNG stream family for per-ray band sampling — separate
#: from the per-patch ray streams so spectral draws never perturb the
#: ray sequence (gray-limit bit-identity depends on this)
SPECTRAL_STREAM = "spectral"


@dataclass
class SpectralResult(RMCRTResult):
    """A spectral solve's output: the gray result surface plus the
    per-band ray census (how the Planck sampler spent its budget)."""

    band_rays: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def band_level_fields(
    props: RadiativeProperties, model: SpectralModel, band: int
) -> RadiativeProperties:
    """The property bundle one band's rays march through.

    Interior (FLOW) kappa scales by the band's kappa scale; surface
    cells (wall ring and intrusions, where ``abskg`` holds emissivity)
    multiply by the tabulated band emissivity at the local surface
    temperature. ``sigma_t4`` is deliberately untouched — emission
    band-weighting cancels against the Planck importance sampling.
    """
    abskg = props.abskg.copy()
    flow = props.cell_type == CellType.FLOW
    scale = float(model.kappa_scales[band])
    if scale != 1.0:
        abskg[flow] *= scale
    if not model.emissivity.is_gray:
        surf = ~flow
        t_surf = (props.sigma_t4[surf] / SIGMA_SB) ** 0.25
        abskg[surf] *= model.emissivity.band_values(band, t_surf)
    return RadiativeProperties(
        interior=props.interior,
        abskg=abskg,
        sigma_t4=props.sigma_t4,
        cell_type=props.cell_type,
    )


class SpectralTracer:
    """Single-level spectral RMCRT with Planck band sampling.

    Mirrors :class:`~repro.core.single_level.SingleLevelRMCRT` (same
    patch loop, same per-patch ray streams) plus a second, *named*
    stream per patch for band sampling. Passing an external
    :class:`RandomStreams` lets campaigns own the stream positions —
    that is what makes spectral checkpoints resume bit-identically.
    """

    def __init__(
        self,
        model: SpectralModel,
        rays_per_cell: int = 25,
        threshold: float = 1e-4,
        seed: int = 0,
        backend: str = "vectorized",
        centered_origins: bool = False,
    ) -> None:
        if backend not in ("vectorized", "scalar"):
            raise ReproError(f"unknown backend {backend!r}")
        self.model = model
        self.rays_per_cell = int(rays_per_cell)
        self.threshold = float(threshold)
        self.seed = int(seed)
        self.backend = backend
        self.centered_origins = bool(centered_origins)

    def solve(
        self,
        grid: Grid,
        props: RadiativeProperties,
        streams: Optional[RandomStreams] = None,
    ) -> SpectralResult:
        level = grid.finest_level
        fields = LevelFields.from_properties(level, props)
        band_fields = self._band_fields(level, props)
        if streams is None:
            streams = RandomStreams(self.seed)
        timers = TimerRegistry()
        tracer = get_tracer()
        metrics = get_metrics()

        divq = np.empty(level.domain_box.extent)
        band_rays = np.zeros(self.model.nbands, dtype=np.int64)
        patches = level.patches or [_whole_domain_patch(level)]
        rays = 0
        with timers("spectral_solve"), tracer.span(
            "spectral_solve", cat="spectral",
            bands=self.model.nbands, backend=self.backend,
        ):
            for patch in patches:
                pdivq, counts = self._solve_patch(
                    fields, band_fields, patch, streams, timers, tracer
                )
                divq[patch.box.slices(origin=level.domain_box.lo)] = pdivq
                band_rays += counts
                rays += patch.box.volume * self.rays_per_cell
        metrics.counter("spectral.rays.traced", backend=self.backend).inc(rays)
        metrics.counter("spectral.solves", backend=self.backend).inc()
        return SpectralResult(
            divq=divq, rays_traced=rays, timers=timers, band_rays=band_rays
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _band_fields(self, level, props: RadiativeProperties) -> List[LevelFields]:
        """Per-band marching fields, built once per solve."""
        return [
            LevelFields.from_properties(
                level, band_level_fields(props, self.model, b)
            )
            for b in range(self.model.nbands)
        ]

    def _solve_patch(
        self, fields, band_fields, patch, streams: RandomStreams, timers, tracer
    ):
        ray_rng = streams.for_patch(patch.patch_id)
        band_rng = streams.named(SPECTRAL_STREAM, patch.patch_id)
        origins, directions = generate_patch_rays(
            fields, [patch.box], self.rays_per_cell, [ray_rng],
            centered_origins=self.centered_origins,
        )
        n = origins.shape[0]
        bands = self.model.table.sample_bands(band_rng, n)
        counts = np.bincount(bands, minlength=self.model.nbands).astype(np.int64)

        sum_i = np.empty(n)
        with timers("kernel"), tracer.span(
            "spectral_kernel", cat="spectral", patch=patch.patch_id, rays=n,
        ):
            if self.backend == "vectorized":
                self._march_vectorized(band_fields, origins, directions, bands, sum_i)
            else:
                self._march_scalar(band_fields, origins, directions, bands, sum_i)

        weighted = sum_i * self.model.kappa_scales[bands]
        mean = weighted.reshape(-1, self.rays_per_cell).mean(axis=1)
        pdivq = divq_from_sums(
            fields, patch.box, mean, emission_scale=self.model.planck_mean_scale
        )
        return pdivq, counts

    def _march_vectorized(self, band_fields, origins, directions, bands, sum_i):
        """Group rays by band, march each group with the batched SoA
        DDA kernel (chunked so device memory stays bounded)."""
        for b in range(self.model.nbands):
            idx = np.nonzero(bands == b)[0]
            sum_i[idx] = march_chunked(
                [band_fields[b]], origins[idx], directions[idx], threshold=self.threshold
            )

    def _march_scalar(self, band_fields, origins, directions, bands, sum_i):
        """The per-ray reference loop: one ray at a time through its
        band's fields — the differential oracle for the batch path."""
        for r in range(origins.shape[0]):
            sum_i[r], _, _, _ = march_single_ray(
                band_fields[bands[r]],
                origins[r],
                directions[r],
                threshold=self.threshold,
            )
