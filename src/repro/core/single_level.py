"""Single-level RMCRT solver.

The pre-AMR configuration (paper Section III.C): one fine mesh, every
ray marches it end-to-end, and in the distributed setting the entire
domain's properties must be replicated on every node —
O(N_total^2) communication, which is precisely what made problems
beyond 256^3 intractable and motivated the multi-level approach. Kept
as a first-class solver because it is the accuracy gold standard the
multi-level solver is validated against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.grid.grid import Grid
from repro.grid.level import Level
from repro.grid.patch import Patch
from repro.core.fields import LevelFields
from repro.core.cpu_kernel import march_single_ray
from repro.core.kernels import (
    TraceOptions, divq_from_sums, draw_bands, trace_patch_single_level,
)
from repro.core.rays import generate_patch_rays
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError
from repro.util.rng import SPECTRAL_STREAM, RandomStreams


@dataclass
class RMCRTResult:
    """Output of one radiation solve."""

    divq: np.ndarray                 #: del.q on the (finest) level interior
    rays_traced: int
    solve_time_s: float              #: wall seconds of the solve
    #: incident radiative flux in wall-adjacent cells (pipelines with
    #: compute_boundary_flux=True), zeros elsewhere; None when not computed
    wall_flux: "np.ndarray | None" = None

    @property
    def total_emission(self) -> float:
        """Domain integral of del.q (net radiative loss, per unit dx^3)."""
        return float(self.divq.sum())


class PatchSolver:
    """What the direct solvers share: the trace options, the seed, and
    the loop that traces the patches of the finest level one at a time.

    The keywords are :class:`~repro.core.kernels.TraceOptions`'s, held
    as ``self.options``. A ``spectral`` model turns the trace spectral:
    each patch then also draws its rays' bands from its named
    ``SPECTRAL_STREAM`` stream.
    """

    def __init__(self, *, seed: int = 0, **options) -> None:
        self.seed = int(seed)
        self.options = TraceOptions(**options)

    def _solve_patches(
        self, level: Level, trace: Callable, streams: Optional[RandomStreams] = None
    ) -> RMCRTResult:
        """del.q over every patch of ``level`` (the whole level when it
        is not decomposed): ``trace(patch, rng, band_rng)`` with the
        patch's ray stream and, for a spectral solve, its band stream."""
        if streams is None:
            streams = RandomStreams(self.seed)
        divq = np.empty(level.domain_box.extent)
        patches = level.patches or [_whole_domain_patch(level)]
        t0 = time.perf_counter()
        for patch in patches:
            rng = streams.for_patch(patch.patch_id)
            band_rng = (
                None if self.options.spectral is None
                else streams.named(SPECTRAL_STREAM, patch.patch_id)
            )
            pdivq = trace(patch, rng, band_rng)
            divq[patch.box.slices(origin=level.domain_box.lo)] = pdivq
        solve_time_s = time.perf_counter() - t0
        rays = sum(patch.box.volume for patch in patches) * self.options.rays_per_cell
        return RMCRTResult(divq=divq, rays_traced=rays, solve_time_s=solve_time_s)


class SingleLevelRMCRT(PatchSolver):
    """Trace every ray on one (the finest) level.

    ``backend='vectorized'`` runs the batch DDA kernel (the simulated
    GPU path); ``'scalar'`` the per-ray reference loop (the CPU path):
    the same draws, rays and bands, marched one at a time.
    """

    def __init__(self, *, seed: int = 0, backend: str = "vectorized", **options) -> None:
        if backend not in ("vectorized", "scalar"):
            raise ReproError(f"unknown backend {backend!r}")
        super().__init__(seed=seed, **options)
        self.backend = backend

    def solve(
        self, grid: Grid, props: RadiativeProperties, streams: Optional[RandomStreams] = None
    ) -> RMCRTResult:
        """del.q on the finest level. Passing an external ``streams`` lets
        a campaign own the stream positions, which is what makes its
        checkpoints resume bit-identically."""
        level = grid.finest_level
        fields = LevelFields.from_properties(level, props)  # the level, laid out once a solve

        def trace(patch, rng, band_rng):
            if self.backend == "scalar":
                return self._scalar_patch(fields, patch.box, rng, band_rng)
            return trace_patch_single_level(fields, patch.box, self.options, rng, band_rng)

        return self._solve_patches(level, trace, streams)

    def _scalar_patch(self, fields: LevelFields, box, rng, band_rng) -> np.ndarray:
        """The per-ray reference loop: one ray at a time through its
        band's window — the differential oracle for the batch path, whose
        del.q reduction it shares."""
        options = self.options
        origins, directions = generate_patch_rays(
            fields, [box], options.rays_per_cell, [rng],
            centered_origins=options.centered_origins,
        )
        model = options.spectral
        if model is None:
            bands = np.zeros(origins.shape[0], dtype=np.int64)
            band_fields, scales, emission_scale = fields, np.ones(1), 1.0
        else:
            bands = draw_bands(model, [band_rng], [origins.shape[0]])
            band_fields = fields.bands(model)
            scales, emission_scale = model.kappa_scales, model.planck_mean_scale
        sums = np.array([
            march_single_ray(
                band_fields, origins[r], directions[r],
                threshold=options.threshold, reflections=options.reflections, window=b,
            )[0]
            for r, b in enumerate(bands)
        ])
        weighted = sums * scales[bands]
        return divq_from_sums(
            fields, fields.cells([box]),
            weighted.reshape(-1, options.rays_per_cell).mean(axis=1), emission_scale,
        ).reshape(box.extent)


def _whole_domain_patch(level):
    return Patch(patch_id=0, level_index=level.index, box=level.domain_box)
