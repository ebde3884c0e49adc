"""Low-Mach pressure projection (the Hypre solve stand-in).

ARCHES' low-Mach formulation requires a sparse pressure Poisson solve
every timestep, done with Hypre on the real machine (paper Section
II.A). Here: a 7-point periodic Laplacian assembled once per shape and
solved with scipy's conjugate gradient — same role, laptop scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.arches.operators import divergence, gradient
from repro.util.errors import ReproError


@lru_cache(maxsize=8)
def _periodic_laplacian(shape: Tuple[int, int, int], dx: Tuple[float, float, float]):
    """Assemble the periodic 7-point Laplacian (cached per shape)."""
    # scipy loads on first use: ``import repro`` reaches this module, and
    # no radiation solve, server or worker process ever projects
    import scipy.sparse as sp

    nx, ny, nz = shape
    n = nx * ny * nz

    def idx(i, j, k):
        return (i % nx) * ny * nz + (j % ny) * nz + (k % nz)

    rows, cols, vals = [], [], []
    inv2 = [1.0 / d ** 2 for d in dx]
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    center = idx(i, j, k)
    diag = -2.0 * (inv2[0] + inv2[1] + inv2[2]) * np.ones(n)
    rows.append(center); cols.append(center); vals.append(diag)
    for d, (di, dj, dk) in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        for sgn in (+1, -1):
            nb = idx(i + sgn * di, j + sgn * dj, k + sgn * dk)
            rows.append(center); cols.append(nb)
            vals.append(np.full(n, inv2[d]))
    a = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return a


class PressureProjection:
    """Make a collocated velocity field (discretely) divergence-free."""

    def __init__(self, dx: Sequence[float], rtol: float = 1e-8, maxiter: int = 2000):
        self.dx = tuple(float(v) for v in dx)
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        self.last_iterations = 0

    def project(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Returns (u', v', w', p) with div(u') ~ 0 (periodic BCs)."""
        if u.shape != v.shape or v.shape != w.shape:
            raise ReproError("velocity components must share a shape")
        shape = u.shape
        rhs = divergence(u, v, w, self.dx, bc="periodic").ravel()
        rhs = rhs - rhs.mean()  # periodic Poisson solvability
        a = _periodic_laplacian(shape, self.dx)

        iters = [0]

        def count(_):
            iters[0] += 1

        import scipy.sparse.linalg as spla  # on first use, as above

        p_flat, info = spla.cg(
            a, rhs, rtol=self.rtol, maxiter=self.maxiter, callback=count
        )
        if info > 0:
            raise ReproError(f"pressure CG failed to converge in {info} iterations")
        self.last_iterations = iters[0]
        p = p_flat.reshape(shape)
        gx, gy, gz = gradient(p, self.dx, bc="periodic")
        return u - gx, v - gy, w - gz, p
