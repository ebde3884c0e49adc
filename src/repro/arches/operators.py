"""Finite-volume spatial operators on a uniform collocated mesh.

Central differencing for diffusive terms, first-order upwinding for
advection (the flux-limited path in real ARCHES; upwind is its
monotone limit), with either periodic or fixed-value boundary rings.
All operators are fully vectorized (no Python loops over cells).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.util.errors import ReproError


def pad_field(field: np.ndarray, bc: str, value: float = 0.0) -> np.ndarray:
    """One ghost layer: 'periodic' wraps, 'fixed' holds ``value``,
    'neumann' copies the adjacent interior cell (zero-gradient)."""
    if bc == "periodic":
        return np.pad(field, 1, mode="wrap")
    if bc == "fixed":
        return np.pad(field, 1, mode="constant", constant_values=value)
    if bc == "neumann":
        return np.pad(field, 1, mode="edge")
    raise ReproError(f"unknown bc {bc!r}")


def laplacian(field: np.ndarray, dx: Sequence[float], bc: str = "neumann",
              bc_value: float = 0.0) -> np.ndarray:
    """7-point Laplacian."""
    g = pad_field(field, bc, bc_value)
    c = g[1:-1, 1:-1, 1:-1]
    out = (g[2:, 1:-1, 1:-1] - 2 * c + g[:-2, 1:-1, 1:-1]) / dx[0] ** 2
    out += (g[1:-1, 2:, 1:-1] - 2 * c + g[1:-1, :-2, 1:-1]) / dx[1] ** 2
    out += (g[1:-1, 1:-1, 2:] - 2 * c + g[1:-1, 1:-1, :-2]) / dx[2] ** 2
    return out


def upwind_advection(
    scalar: np.ndarray,
    velocity: Tuple[np.ndarray, np.ndarray, np.ndarray],
    dx: Sequence[float],
    bc: str = "neumann",
    bc_value: float = 0.0,
) -> np.ndarray:
    """-(u . grad) phi with donor-cell upwinding (monotone)."""
    g = pad_field(scalar, bc, bc_value)
    c = g[1:-1, 1:-1, 1:-1]
    out = np.zeros_like(scalar)
    slabs = [
        (g[2:, 1:-1, 1:-1], g[:-2, 1:-1, 1:-1]),
        (g[1:-1, 2:, 1:-1], g[1:-1, :-2, 1:-1]),
        (g[1:-1, 1:-1, 2:], g[1:-1, 1:-1, :-2]),
    ]
    for d, (plus, minus) in enumerate(slabs):
        vel = velocity[d]
        fwd = (plus - c) / dx[d]     # use when vel < 0
        bwd = (c - minus) / dx[d]    # use when vel > 0
        out -= vel * np.where(vel > 0, bwd, fwd)
    return out
