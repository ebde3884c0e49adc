"""Multi-level ("data onion") RMCRT — the paper's core algorithm.

Each fine-mesh patch task owns fine-resolution radiative properties for
its patch plus a halo (the region of interest); everywhere beyond, rays
march coarsened, domain-spanning copies of the properties projected to
the radiation levels. The physics error this introduces is the loss of
sub-coarse-cell variation far from the evaluation point — small,
because distant contributions are both attenuated (exp(-tau)) and
averaged over many rays — while the distributed-memory win is the
point of the paper: per-node data drops from O(N_fine) to
O(patch + halo + N_coarse).
"""

from __future__ import annotations

from typing import List, Optional

from repro.grid.grid import Grid
from repro.core.fields import LevelFields
from repro.core.kernels import patch_roi, trace_patch_multi_level
from repro.core.single_level import PatchSolver, RMCRTResult
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError


def project_to_coarser_levels(
    grid: Grid, fine_props: RadiativeProperties
) -> List[RadiativeProperties]:
    """Property bundles for every level, coarsest-first.

    The finest entry is ``fine_props`` itself; each coarser level gets
    the conservative projection through the cumulative refinement
    ratio — the distributed analogue is the coarsen-and-allgather step
    whose message volume the cost model (E8) accounts.
    """
    if fine_props.interior != grid.finest_level.domain_box:
        raise ReproError("fine properties do not match the finest level")
    bundles: List[Optional[RadiativeProperties]] = [None] * grid.num_levels
    bundles[-1] = fine_props
    for idx in range(grid.num_levels - 2, -1, -1):
        finer_level = grid.level(idx + 1)
        ratio = finer_level.refinement_ratio
        if not (ratio[0] == ratio[1] == ratio[2]):
            raise ReproError(f"anisotropic refinement {ratio} not supported")
        bundles[idx] = bundles[idx + 1].coarsen(ratio[0])
    return bundles  # type: ignore[return-value]


class MultiLevelRMCRT(PatchSolver):
    """The 2+-level AMR RMCRT solver of Sections III.B-III.C."""

    def solve(self, grid: Grid, fine_props: RadiativeProperties) -> RMCRTResult:
        if grid.num_levels < 2:
            raise ReproError(
                "multi-level RMCRT needs >= 2 levels; use SingleLevelRMCRT"
            )
        bundles = project_to_coarser_levels(grid, fine_props)
        # every level as a launch marches it, laid out once a solve
        *coarse_fields, fine_fields = [
            LevelFields.from_properties(grid.level(i), bundles[i]) for i in range(grid.num_levels)
        ]
        fine_level = grid.finest_level

        def trace(patch, rng, band_rng):
            # one patch per launch: the patches share one full-level
            # fine stack, and stacking copies of it is the wrong trade
            roi = patch_roi(fine_level.domain_box, patch.box, self.options.halo)
            (pdivq,) = trace_patch_multi_level(
                coarse_fields,
                fine_fields,
                [(patch.box, roi, rng)],
                self.options,
                band_rngs=None if band_rng is None else [band_rng],
            )
            return pdivq

        return self._solve_patches(fine_level, trace)
