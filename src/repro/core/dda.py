"""Batched 3-D DDA ray marching — the RMCRT device kernel's core.

This is the vectorized equivalent of the CUDA
``updateSumI`` kernel in Uintah's GPU RMCRT (paper Section III): a
whole batch of rays advances cell-by-cell through a level's property
arrays using the Amanatides-Woo traversal, accumulating the incoming
intensity

    sumI = integral kappa(s) Ib(s) exp(-tau(s)) ds
         = sum over segments  Ib_cell * (exp(-tau_in) - exp(-tau_out))

until each ray is extinguished: it enters a wall/intrusion cell (adding
the attenuated wall emission, optionally reflecting), drops below the
transmissivity threshold, or — in multi-level mode — leaves the fine
region of interest and is parked for hand-off to a coarser level.

The batch layout is exactly what a GPU wants, which is why this module
doubles as the "GPU kernel" of the reproduction, NumPy's vector unit
playing the role of the K20X's SIMT lanes:

* **dense structure-of-arrays by axis.** State is contiguous rows —
  ``tau, sum_i, tcur, trans`` and ``tmax``/``tdelta`` per axis as
  floats; the batch row, the flat cell index and the flat index step per
  axis as ints — so every step is a handful of whole-row ufuncs and no
  index gather into ray state.
* **flat cell index.** The cell is one offset into the raveled property
  arrays, and one gather of a per-call int8 *cell class* (the status a
  ray ends with on entering the cell: wall, or outside the ROI) replaces
  the cell-type lookup and the six ROI compares.
* **stacked windows.** One launch serves several patch tasks: their
  fine windows' raveled arrays are laid end to end, a lane's flat index
  starts at its window's base and steps by its window's strides (the
  step is a per-lane row already), so lanes of different patches share
  each step's fixed cost and never each other's data.
* **mask-multiply advance.** The crossed axis is picked by comparisons
  (first minimum, as ``argmin`` and the scalar oracle pick it) and
  advanced by ``t_a += is_a * tdelta_a``: adding an exact 0 leaves the
  other axes' bits alone.
* **one exp per step.** ``trans = exp(-tau)`` is carried from step to
  step and recomputed only for lanes that just reflected.
* **park, then half-compact.** A finished lane is scattered to the
  batch and its row *parked*: pointed at a sink cell laid after the
  stacked windows (no absorption, no emission, class ALIVE) with a zero
  index step and zero optical depth, so it marches in place adding
  exactly zero and never ends again — the masked-lane idiom for SIMT
  divergence. The rows are physically compacted only once half of them
  are parked, so a launch copies at most about twice its lanes instead
  of one row per ray-step. A parked lane's exit time is kept and its
  exit position computed once, at the end of the launch.

Each call publishes ``dda.calls / dda.steps / dda.ray_steps /
dda.lanes_launched / dda.compactions`` (label ``handoff``) to the
metrics registry; ``ray_steps`` counts live lanes, not rows. The
active-lane fraction, the SIMT-divergence analogue, is
``ray_steps / (steps * lanes_launched)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence, Union

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.core.fields import LevelFields
from repro.perf.metrics import get_metrics
from repro.util.errors import ReproError

_INV_PI = 1.0 / np.pi


class RayStatus(IntEnum):
    ALIVE = 0        #: still marching (only transiently, inside the loop)
    WALL_HIT = 1     #: absorbed at a wall/intrusion surface
    EXTINCT = 2      #: transmissivity fell below threshold
    LEFT_ROI = 3     #: exited the region of interest (multi-level hand-off)


_ALIVE, _WALL_HIT, _EXTINCT, _LEFT_ROI = (int(s) for s in RayStatus)


@dataclass
class RayBatch:
    """SoA state for a batch of rays.

    ``sum_i`` is the accumulated incoming intensity per ray; ``tau`` the
    optical depth from the ray origin. Parked rays (LEFT_ROI) carry
    their exit position for re-initialization on a coarser level.
    """

    origins: np.ndarray      # (n, 3) float
    directions: np.ndarray   # (n, 3) float unit vectors
    sum_i: np.ndarray        # (n,) float
    tau: np.ndarray          # (n,) float
    status: np.ndarray       # (n,) int8 RayStatus
    exit_pos: np.ndarray     # (n, 3) float, valid where status == LEFT_ROI

    @staticmethod
    def fresh(origins: np.ndarray, directions: np.ndarray) -> "RayBatch":
        origins = np.ascontiguousarray(origins, dtype=np.float64)
        directions = np.ascontiguousarray(directions, dtype=np.float64)
        if origins.shape != directions.shape or origins.ndim != 2 or origins.shape[1] != 3:
            raise ReproError(
                f"origins {origins.shape} / directions {directions.shape} must be (n, 3)"
            )
        n = origins.shape[0]
        return RayBatch(
            origins=origins,
            directions=directions,
            sum_i=np.zeros(n),
            tau=np.zeros(n),
            status=np.full(n, RayStatus.ALIVE, dtype=np.int8),
            exit_pos=np.zeros_like(origins),
        )

    @property
    def n(self) -> int:
        return self.origins.shape[0]

    def parked(self) -> np.ndarray:
        """Indices of rays awaiting a coarser level."""
        return np.nonzero(self.status == RayStatus.LEFT_ROI)[0]


def _stacked(parts, sink):
    """The windows' raveled arrays laid end to end, then the sink cell's
    value ``sink``."""
    return np.concatenate([*parts, np.array([sink], dtype=parts[0].dtype)])


def _check_windows(windows, rois, window_of) -> None:
    """Every lane must stay inside its own window: a ray ends in the wall
    ring or, with an ROI, at most one cell outside it."""
    first = windows[0]
    if len(rois) != len(windows):
        raise ReproError(f"{len(windows)} windows but {len(rois)} rois")
    if len(windows) > 1 and window_of is None:
        raise ReproError("a launch over several windows needs window_of")
    for w, roi in zip(windows, rois):
        ring = w.ring_box
        if (w.dx, w.anchor) != (first.dx, first.anchor):
            raise ReproError("the windows of one launch must be of one level")
        if roi is not None and not ring.contains_box(roi):
            raise ReproError(f"roi {roi} escapes level ring box {ring}")
        if w.window is not None and (
            roi is None or not w.window.contains_box(roi.grow(1).intersect(ring))
        ):
            raise ReproError(
                f"window {w.window} must hold its roi and the cells around it, got roi {roi}"
            )


def _cell_class(wall: np.ndarray, box: Box, roi: Optional[Box]) -> np.ndarray:
    """The status a ray ends with on entering each cell of one window
    (ALIVE: marches on); outside the ROI wins over wall."""
    if roi is None:
        return wall.astype(np.int8)  # True is WALL_HIT
    cell_class = np.full(wall.shape, _LEFT_ROI, dtype=np.int8)
    inside = roi.slices(origin=box.lo)
    cell_class[inside] = wall[inside]
    return cell_class


def _launch_state(windows, window_of, batch, launch, origins, from_handoff):
    """Amanatides-Woo set-up of the rays ``launch``, packed by axis.

    Returns the float rows ``tau, sum_i, tcur, trans, tmax x/y/z, tdelta
    x/y/z`` and the int rows ``lane`` (batch row), ``flat`` (cell offset
    into the stacked raveled arrays: the lane's window base plus its
    offset in that window), ``fstep x/y/z`` (offset step per axis
    crossing, by the lane's window's strides). Everything of shape
    (n, 3) dies with this frame: the march's memory high-water mark is
    the packed state. A launch of the whole batch reads it in place.
    """
    n = launch.size
    rows = slice(None) if n == batch.n else launch
    start_pos = origins[rows]
    dirs = batch.directions[rows]
    level = windows[0]  # anchor and spacing are the level's, shared by every window
    cell = level.position_to_cell(start_pos, nudge_dir=dirs if from_handoff else None)
    # per window: array origin x/y/z, strides x/y/z, base offset in the stack
    geometry, offset = [], 0
    for w in windows:
        extent = w.box.extent
        geometry.append((*w.box.lo, extent[1] * extent[2], extent[2], 1, offset))
        offset += w.box.volume
    geometry = np.array(geometry, dtype=np.int64).T
    # scalars for a lone window, per-lane rows for a fused launch
    geometry = geometry[:, 0] if len(windows) == 1 else geometry[:, window_of[rows]]
    lo, strides, base = geometry[:3], geometry[3:6], geometry[6]
    fstate = np.empty((10, n))
    istate = np.empty((5, n), dtype=np.int64)
    tau, sum_i, tcur, trans = fstate[:4]
    lane, flat = istate[:2]
    lane[:] = launch
    tau[:] = batch.tau[rows]
    sum_i[:] = batch.sum_i[rows]
    tcur[:] = 0.0
    np.exp(-tau, out=trans)
    flat[:] = base
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            d, c = dirs[:, a], cell[:, a]
            moving = d != 0.0
            step = np.sign(d).astype(np.int64)
            next_bound = level.anchor[a] + (c + (step > 0)) * level.dx[a]
            fstate[4 + a] = np.where(moving, (next_bound - start_pos[:, a]) / d, np.inf)
            # 0, not inf, on an axis the ray never crosses: the advance
            # multiplies by the axis mask, and False * inf is NaN
            fstate[7 + a] = np.where(moving, level.dx[a] / np.abs(d), 0.0)
            istate[2 + a] = step * strides[a]
            flat += (c - lo[a]) * strides[a]
    return fstate, istate


def march(
    fields: Union[LevelFields, Sequence[LevelFields]],
    batch: RayBatch,
    roi: Union[None, Box, Sequence[Box]] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    max_steps: Optional[int] = None,
    from_handoff: bool = False,
    window_of: Optional[np.ndarray] = None,
) -> RayBatch:
    """March every ALIVE/LEFT_ROI ray of ``batch`` through ``fields``.

    ``roi`` restricts marching to a cell-index box (which must lie
    within the level's ring box); rays stepping outside it are parked
    with status LEFT_ROI and a recorded exit position. Without ``roi``
    rays always terminate inside the wall ring, which encloses the
    domain by construction.

    One launch can serve several patch tasks: ``fields`` is then a
    sequence of K windows of one level, ``roi`` the matching sequence of
    boxes and ``window_of[r]`` the window ray ``r`` marches in. Each lane
    reads its own window's data under its own ROI — the windows' raveled
    arrays are laid end to end and a lane's flat index starts at its
    window's base and steps by its window's strides — so the result is
    bit-identical to K separate marches. A lone ``LevelFields`` is the
    K = 1 case of the same loop.

    ``from_handoff`` re-launches previously parked rays from their exit
    positions (nudged along the direction so positions exactly on a
    coarse face land downstream).

    Returns ``batch`` (mutated in place) for chaining. With ``roi`` and
    ``reflections`` together ``batch.directions`` is replaced by a copy
    holding every ray's heading after its last reflection, so a parked
    ray continues the right way on the coarser level.
    """
    windows = [fields] if isinstance(fields, LevelFields) else list(fields)
    rois = [roi] * len(windows) if roi is None or isinstance(roi, Box) else list(roi)
    _check_windows(windows, rois, window_of)
    if not 0.0 <= threshold <= 1.0:
        # a parked row's optical depth is 0: it must never read as extinct
        raise ReproError(f"transmissivity threshold {threshold} must lie in [0, 1]")
    parking = any(r is not None for r in rois)

    if from_handoff:
        launch = np.nonzero(batch.status == RayStatus.LEFT_ROI)[0]
        origins = batch.exit_pos
    else:
        launch = np.nonzero(batch.status == RayStatus.ALIVE)[0]
        origins = batch.origins
    n = launch.size
    if n == 0:
        return batch
    mirror = parking and reflections
    if mirror:
        # a reflection mirrors the origin and flips the direction of a
        # ray that may park later: work on copies, not the caller's arrays
        origins = origins.copy()
        batch.directions = batch.directions.copy()
    directions = batch.directions

    fstate, istate = _launch_state(windows, window_of, batch, launch, origins, from_handoff)
    tau, sum_i, tcur, trans, t0, t1, t2, d0, d1, d2 = fstate
    lane, flat, s0, s1, s2 = istate

    # the sink cell, after the stacked windows: a parked row marches in
    # place there adding exactly zero, and never ends again
    abskg = _stacked([w.abskg.reshape(-1) for w in windows], 0.0)
    emis = _stacked([(w.sigma_t4 * _INV_PI).reshape(-1) for w in windows], 0.0)
    walls = [w.cell_type != CellType.FLOW for w in windows]
    cell_class = _stacked(
        [_cell_class(wall, w.box, r).reshape(-1) for wall, w, r in zip(walls, windows, rois)],
        _ALIVE,
    )
    sink = cell_class.size - 1

    log_threshold = -np.log(threshold)
    if max_steps is None:
        max_steps = 16 * (max(sum(w.box.extent) for w in windows) + 3)
    t_exit = np.empty(batch.n) if parking else None

    def retire(state: np.ndarray) -> int:
        """Scatter the lanes ``state`` finishes to the batch and park
        their rows on the sink; returns how many finished."""
        done = np.nonzero(state)[0]
        out = lane[done]
        batch.status[out] = state[done]
        batch.tau[out] = tau[done]
        batch.sum_i[out] = sum_i[done]
        if parking:
            t_exit[out] = tcur[done]
        flat[done] = sink
        istate[2:, done] = 0  # no index step: the row stays on the sink
        tau[done] = 0.0  # never crosses the threshold
        return done.size

    live = rows = n
    # a ray may launch already inside a wall cell (e.g. parked exactly on
    # the domain face and handed to a coarser level): it has reached the
    # wall — absorb it before the march
    state = _stacked([wall.reshape(-1) for wall in walls], False).take(flat).view(np.int8)
    if state.any():
        at_wall = np.nonzero(state)[0]
        f = flat[at_wall]
        sigma_t4 = _stacked([w.sigma_t4.reshape(-1) for w in windows], 0.0)
        sum_i[at_wall] += abskg[f] * sigma_t4[f] * _INV_PI * trans[at_wall]
        live -= retire(state)

    steps = ray_steps = compactions = 0
    while live and steps < max_steps:
        if 2 * live <= rows:
            # half the rows are parked: drop them
            keep = np.nonzero(istate[1] != sink)[0]
            fstate, istate = fstate.take(keep, axis=1), istate.take(keep, axis=1)
            rows = live
            compactions += 1
        tau, sum_i, tcur, trans, t0, t1, t2, d0, d1, d2 = fstate
        lane, flat, s0, s1, s2 = istate
        steps += 1
        ray_steps += live

        # the crossed axis: first minimum of (t0, t1, t2), as argmin picks it
        is0 = (t0 <= t1) & (t0 <= t2)
        is1 = (t1 <= t2) & ~is0
        is2 = ~(is0 | is1)
        t_next = np.minimum(np.minimum(t0, t1), t2)

        # sum_i += Ib * (exp(-tau_in) - exp(-tau_out)), exp(-tau_in) carried
        tau += abskg.take(flat) * (t_next - tcur)
        trans_out = np.exp(-tau)
        sum_i += emis.take(flat) * (trans - trans_out)
        trans[:] = trans_out
        tcur[:] = t_next

        # mask-multiply advance: adding an exact 0 leaves the other axes alone
        t0 += is0 * d0
        t1 += is1 * d1
        t2 += is2 * d2
        flat += is0 * s0
        flat += is1 * s1
        flat += is2 * s2

        state = cell_class.take(flat)
        if state.any():
            hit = np.nonzero(state == _WALL_HIT)[0]
            f = flat[hit]
            wall_emis = abskg[f]
            sum_i[hit] += wall_emis * emis[f] * trans[hit]
            if reflections:
                rho = 1.0 - wall_emis
                bounce = rho > threshold
                r = hit[bounce]
                # a specular reflection is the flip of the direction
                # component on the hit axis plus a grey attenuation:
                # future contributions carry an extra factor rho,
                # i.e. tau increases by -ln(rho)
                state[r] = _ALIVE
                tau[r] += -np.log(rho[bounce])
                trans[r] = np.exp(-tau[r])
                ax = is1[r] + 2 * is2[r]
                tmax, tdelta, fstep = fstate[4:7], fstate[7:10], istate[2:5]
                back = -fstep[ax, r]
                fstep[ax, r] = back
                flat[r] += back  # back into the flow cell
                tmax[ax, r] = tcur[r] + tdelta[ax, r]
                if mirror:
                    # mirror the origin too, so that origin + t * direction
                    # stays the ray's position after the bounce
                    out = lane[r]
                    d_old = directions[out, ax]
                    origins[out, ax] += 2.0 * tcur[r] * d_old
                    directions[out, ax] = -d_old

        # threshold extinction: exp(-tau) < threshold
        dead = tau > log_threshold
        if dead.any():
            state[dead & (state == _ALIVE)] = _EXTINCT
        if state.any():
            live -= retire(state)

    if parking:
        # a parked lane never reflects again: its origin and direction
        # rows are final, so its exit position is taken once, here
        parked = launch[batch.status[launch] == _LEFT_ROI]
        batch.exit_pos[parked] = origins[parked] + t_exit[parked, None] * directions[parked]

    # kernel counters: active-lane fraction is ray_steps / (steps * lanes)
    metrics, handoff = get_metrics(), "1" if from_handoff else "0"
    metrics.counter("dda.calls", handoff=handoff).inc()
    metrics.counter("dda.steps", handoff=handoff).inc(steps)
    metrics.counter("dda.ray_steps", handoff=handoff).inc(ray_steps)
    metrics.counter("dda.lanes_launched", handoff=handoff).inc(n)
    metrics.counter("dda.compactions", handoff=handoff).inc(compactions)
    if live:
        raise ReproError(
            f"{live} rays still alive after {max_steps} DDA steps — "
            f"grid/threshold configuration cannot terminate them"
        )
    return batch
