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

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.grid.grid import Grid
from repro.grid.patch import Patch
from repro.core.fields import LevelFields
from repro.core.kernels import trace_patch_single_level
from repro.core.cpu_kernel import trace_rays_scalar
from repro.core.rays import generate_patch_rays
from repro.core.kernels import divq_from_sums
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError
from repro.util.rng import RandomStreams
from repro.util.timing import TimerRegistry


@dataclass
class RMCRTResult:
    """Output of one radiation solve."""

    divq: np.ndarray                 #: del.q on the (finest) level interior
    rays_traced: int
    timers: TimerRegistry
    per_patch: Dict[int, np.ndarray] = field(default_factory=dict)
    #: incident radiative flux in wall-adjacent cells (pipelines with
    #: compute_boundary_flux=True), zeros elsewhere; None when not computed
    wall_flux: "np.ndarray | None" = None

    @property
    def total_emission(self) -> float:
        """Domain integral of del.q (net radiative loss, per unit dx^3)."""
        return float(self.divq.sum())


class SingleLevelRMCRT:
    """Trace every ray on one (the finest) level.

    ``backend='vectorized'`` runs the batch DDA kernel (the simulated
    GPU path); ``'scalar'`` the per-ray reference loop (the CPU path).
    """

    def __init__(
        self,
        rays_per_cell: int = 25,
        threshold: float = 1e-4,
        seed: int = 0,
        reflections: bool = False,
        centered_origins: bool = False,
        backend: str = "vectorized",
    ) -> None:
        if backend not in ("vectorized", "scalar"):
            raise ReproError(f"unknown backend {backend!r}")
        self.rays_per_cell = int(rays_per_cell)
        self.threshold = float(threshold)
        self.seed = int(seed)
        self.reflections = bool(reflections)
        self.centered_origins = bool(centered_origins)
        self.backend = backend

    def solve(self, grid: Grid, props: RadiativeProperties) -> RMCRTResult:
        level = grid.finest_level
        fields = LevelFields.from_properties(level, props)
        streams = RandomStreams(self.seed)
        timers = TimerRegistry()

        divq = np.empty(level.domain_box.extent)
        patches = level.patches or [_whole_domain_patch(level)]
        rays = 0
        with timers("rmcrt_solve"):
            for patch in patches:
                rng = streams.for_patch(patch.patch_id)
                with timers("kernel"):
                    if self.backend == "vectorized":
                        pdivq = trace_patch_single_level(
                            fields,
                            patch.box,
                            self.rays_per_cell,
                            rng,
                            threshold=self.threshold,
                            reflections=self.reflections,
                            centered_origins=self.centered_origins,
                        )
                    else:
                        pdivq = self._scalar_patch(fields, patch.box, rng)
                divq[patch.box.slices(origin=level.domain_box.lo)] = pdivq
                rays += patch.box.volume * self.rays_per_cell
        return RMCRTResult(divq=divq, rays_traced=rays, timers=timers)

    def _scalar_patch(self, fields: LevelFields, box, rng) -> np.ndarray:
        origins, directions = generate_patch_rays(
            fields, [box], self.rays_per_cell, [rng],
            centered_origins=self.centered_origins,
        )
        sums = trace_rays_scalar(
            fields, origins, directions,
            threshold=self.threshold, reflections=self.reflections,
        )
        per_cell = sums.reshape(-1, self.rays_per_cell).mean(axis=1)
        return divq_from_sums(fields, box, per_cell)


def _whole_domain_patch(level):
    return Patch(patch_id=0, level_index=level.index, box=level.domain_box)
