"""Scalar per-ray reference implementation of the RMCRT march.

A direct, loop-per-ray transcription of Uintah's CPU ``updateSumI`` —
deliberately unoptimized. Its roles:

* **differential oracle**: the vectorized batch kernel in
  :mod:`repro.core.dda` must produce bit-identical sumI for the same
  rays (tests enforce this), and
* **"CPU" side of the GPU/CPU throughput contrast** in the kernel
  benchmarks (E5), standing in for the one-ray-per-thread CPU path the
  paper compares its GPU kernels against.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.core.dda import RayStatus
from repro.core.fields import LevelFields
from repro.util.errors import ReproError


def march_single_ray(
    fields: LevelFields,
    origin,
    direction,
    roi: Optional[Box] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    tau0: float = 0.0,
    sum_i0: float = 0.0,
    from_handoff: bool = False,
    max_steps: int = 1_000_000,
    window: int = 0,
) -> Tuple[float, float, int, Optional[Tuple[float, float, float]]]:
    """March one ray through window ``window`` of ``fields`` (a band's,
    for a spectral trace; the whole level, for a direct solve); returns
    (sum_i, tau, status, exit_pos)."""
    dx = fields.dx
    anchor = fields.anchor
    o = [float(v) for v in origin]
    d = [float(v) for v in direction]

    cell = [0, 0, 0]
    for k, p in enumerate(o):
        q = p
        if from_handoff:
            q = p + 1e-9 * dx[k] * d[k]
        cell[k] = int(math.floor((q - anchor[k]) / dx[k]))

    step = [0, 0, 0]
    tmax = [math.inf] * 3
    tdelta = [math.inf] * 3
    for k in range(3):
        if d[k] > 0:
            step[k] = 1
            tmax[k] = (anchor[k] + (cell[k] + 1) * dx[k] - o[k]) / d[k]
            tdelta[k] = dx[k] / d[k]
        elif d[k] < 0:
            step[k] = -1
            tmax[k] = (anchor[k] + cell[k] * dx[k] - o[k]) / d[k]
            tdelta[k] = -dx[k] / d[k]

    tau = float(tau0)
    sum_i = float(sum_i0)
    tcur = 0.0
    log_threshold = -math.log(threshold)
    lo = fields.boxes[window].lo
    abskg, st4, ctype = fields.views(window)
    inv_pi = 1.0 / math.pi

    # launching inside a wall cell (parked exactly on the domain face):
    # the ray has reached the wall — absorb immediately
    i0, j0, k0 = cell[0] - lo[0], cell[1] - lo[1], cell[2] - lo[2]
    if ctype[i0, j0, k0] != CellType.FLOW:
        sum_i += abskg[i0, j0, k0] * st4[i0, j0, k0] * inv_pi * math.exp(-tau)
        return sum_i, tau, int(RayStatus.WALL_HIT), None

    for _ in range(max_steps):
        ax = 0
        if tmax[1] < tmax[ax]:
            ax = 1
        if tmax[2] < tmax[ax]:
            ax = 2
        t_next = tmax[ax]
        seg = t_next - tcur
        i, j, k = cell[0] - lo[0], cell[1] - lo[1], cell[2] - lo[2]
        kap = abskg[i, j, k]
        emis = st4[i, j, k] * inv_pi
        tau_new = tau + kap * seg
        sum_i += emis * (math.exp(-tau) - math.exp(-tau_new))
        tau = tau_new
        tcur = t_next
        cell[ax] += step[ax]
        tmax[ax] += tdelta[ax]

        if roi is not None and not roi.contains_point(cell):
            exit_pos = (o[0] + tcur * d[0], o[1] + tcur * d[1], o[2] + tcur * d[2])
            return sum_i, tau, int(RayStatus.LEFT_ROI), exit_pos

        i, j, k = cell[0] - lo[0], cell[1] - lo[1], cell[2] - lo[2]
        if ctype[i, j, k] != CellType.FLOW:
            wall_emis = abskg[i, j, k]
            sum_i += wall_emis * st4[i, j, k] * inv_pi * math.exp(-tau)
            if reflections and (1.0 - wall_emis) > threshold:
                tau += -math.log(1.0 - wall_emis)
                # mirror the origin with the direction, so that
                # o + t * d stays the ray's position after the bounce
                o[ax] += 2.0 * tcur * d[ax]
                d[ax] = -d[ax]
                step[ax] = -step[ax]
                cell[ax] += step[ax]
                tmax[ax] = tcur + tdelta[ax]
            else:
                return sum_i, tau, int(RayStatus.WALL_HIT), None

        if tau > log_threshold:
            return sum_i, tau, int(RayStatus.EXTINCT), None

    raise ReproError(f"ray did not terminate within {max_steps} steps")


def trace_rays_scalar(
    fields: LevelFields,
    origins: np.ndarray,
    directions: np.ndarray,
    threshold: float = 1e-4,
    reflections: bool = False,
) -> np.ndarray:
    """sum_i for each ray, scalar path (single level, full domain)."""
    n = origins.shape[0]
    out = np.empty(n)
    for r in range(n):
        out[r], _, _, _ = march_single_ray(
            fields,
            origins[r],
            directions[r],
            threshold=threshold,
            reflections=reflections,
        )
    return out
