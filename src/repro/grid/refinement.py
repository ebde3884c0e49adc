"""Inter-level data operators: fine->coarse projection and
coarse->fine prolongation.

The multi-level RMCRT algorithm projects the fine CFD mesh's radiative
properties (absorption coefficient, sigma*T^4, cell type) onto every
coarser radiation level before ray tracing (paper Section III.C). The
projection must be *conservative* for the scalar properties — the mean
over each coarse cell equals the mean of its fine children — which the
tests enforce as a property-based invariant.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.box import ivec
from repro.util.errors import GridError


def _check_ratio(shape: Sequence[int], ratio) -> tuple:
    r = ivec(ratio) if not isinstance(ratio, int) else (ratio,) * 3
    if any(c < 1 for c in r):
        raise GridError(f"refinement ratio must be >= 1, got {r}")
    for d in range(3):
        if shape[d] % r[d] != 0:
            raise GridError(
                f"array shape {tuple(shape)} not divisible by ratio {r} in dim {d}"
            )
    return r


def coarsen_average(fine: np.ndarray, ratio) -> np.ndarray:
    """Conservative restriction: each coarse cell is the arithmetic mean
    of its ``rx*ry*rz`` fine children.

    Used for kappa and sigmaT4. Vectorized via a reshape to the
    (coarse, ratio) block structure — no Python loops.
    """
    r = _check_ratio(fine.shape, ratio)
    nx, ny, nz = (fine.shape[d] // r[d] for d in range(3))
    blocks = fine.reshape(nx, r[0], ny, r[1], nz, r[2])
    return blocks.mean(axis=(1, 3, 5))


def coarsen_max(fine: np.ndarray, ratio) -> np.ndarray:
    """Restriction by max — used for cell types so that any solid fine
    cell marks the whole coarse cell solid (conservative for opacity:
    a ray must not march through a coarse cell hiding an intrusion)."""
    r = _check_ratio(fine.shape, ratio)
    nx, ny, nz = (fine.shape[d] // r[d] for d in range(3))
    blocks = fine.reshape(nx, r[0], ny, r[1], nz, r[2])
    return blocks.max(axis=(1, 3, 5))


def refine_inject(coarse: np.ndarray, ratio) -> np.ndarray:
    """Piecewise-constant prolongation: every fine child copies its
    coarse parent. The exact right-inverse of :func:`coarsen_average`
    (coarsen(refine(x)) == x)."""
    r = ivec(ratio) if not isinstance(ratio, int) else (ratio,) * 3
    if any(c < 1 for c in r):
        raise GridError(f"refinement ratio must be >= 1, got {r}")
    out = np.repeat(coarse, r[0], axis=0)
    out = np.repeat(out, r[1], axis=1)
    return np.repeat(out, r[2], axis=2)
