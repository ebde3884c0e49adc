"""Boundary (wall) incident-flux calculation — the virtual radiometer.

The quantity the CCMSC boiler designers actually need is the radiative
heat flux to the walls (paper Section III.A). RMCRT computes it with
the same reverse trick used for del.q: from a point on the wall, trace
rays *into* the domain over the inward hemisphere with cosine-weighted
importance sampling, so the incident flux is

    q_in = integral over hemisphere of I(s) (n . s) dOmega
         = pi * E[ sumI ]        (for cosine-sampled directions).

Wall faces are a ray source of the one trace
(:func:`~repro.core.kernels.trace_patch_multi_level`); the radiometer is
its faces-only call on one level with no ROI.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.grid.box import Box
from repro.core.fields import LevelFields
from repro.core.kernels import TraceOptions, trace_patch_multi_level
from repro.core.rays import WALLS, checked_rays_per_face, wall_faces
from repro.util.errors import ReproError


class VirtualRadiometer:
    """Monte Carlo incident-flux estimator on domain wall faces."""

    def __init__(self, rays_per_face: int = 100, threshold: float = 1e-4, seed: int = 0) -> None:
        self.rays_per_face = checked_rays_per_face(rays_per_face)
        self.options = TraceOptions(threshold=threshold)
        self.seed = int(seed)

    def _fluxes(
        self, fields: LevelFields, walls: List[Tuple[int, int]], face_box: Box = None
    ) -> List[np.ndarray]:
        """The flux per face of each of ``walls``, one launch for all over
        ``fields``, the whole level."""
        faces = []
        for axis, side in walls:
            if (axis, side) not in WALLS:
                raise ReproError(f"invalid wall ({axis}, {side})")
            slabs = wall_faces(fields.interior, face_box or fields.interior, [(axis, side)])
            if not slabs:
                raise ReproError("face_box selects no wall faces")
            seeds = np.random.SeedSequence(entropy=self.seed, spawn_key=(axis, side))
            faces.append((*slabs[0], np.random.default_rng(seeds)))
        _, [fluxes] = trace_patch_multi_level(
            [], fields, [(None, None, None)], self.options,
            faces=[faces], rays_per_face=self.rays_per_face,
        )
        return [q.squeeze(axis) for (axis, _, _, _), q in zip(faces, fluxes)]

    def incident_flux(
        self, fields: LevelFields, axis: int, side: int, face_box: Box = None
    ) -> np.ndarray:
        """Incident flux on each boundary face of one wall.

        ``face_box`` (a 2-D slab of interior cells adjacent to the
        wall, default: the whole wall) selects which faces to sample.
        Returns the flux per face, shaped like the slab with the wall
        axis squeezed out.
        """
        [flux] = self._fluxes(fields, [(axis, side)], face_box)
        return flux

    def all_walls(self, fields: LevelFields) -> Dict[Tuple[int, int], np.ndarray]:
        """Incident flux arrays for all six walls, keyed by (axis, side)."""
        return dict(zip(WALLS, self._fluxes(fields, WALLS)))
