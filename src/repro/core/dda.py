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
  ``-tau, sum_i, tcur, trans``, a spare ``tcur, trans`` pair and
  ``tmax``/``tdelta`` per axis as floats; the batch row, the flat cell
  index and the flat index step per axis as ints — so every step is a
  handful of whole-row ufuncs and no index gather into ray state. The
  set-up is by axis too: a launch reads the starts and the directions
  once each into ``(3, n)`` rows and computes the start cell, ``tmax``,
  ``tdelta`` and the index steps one contiguous row at a time (an
  ``(n, 3)`` array broadcast against a 3-vector runs NumPy's inner loop
  three elements at a time); the exit positions are taken the same way.
* **flat cell index.** The cell is one offset into the raveled property
  arrays, and one gather of a per-call int8 *cell class* (the status a
  ray ends with on entering the cell: wall, or outside the ROI) replaces
  the cell-type lookup and the six ROI compares.
* **stacked windows.** One launch serves several patch tasks: their
  fine windows' raveled arrays are laid end to end, a lane's flat index
  starts at its window's base and steps by its window's strides (the
  step is a per-lane row already), so lanes of different patches share
  each step's fixed cost and never each other's data.
* **mask-multiply advance.** The crossed axis is read off the two
  minima the step takes anyway — ``t01 = min(t0, t1)``, ``t_next =
  min(t01, t2)``; ``is0 = t0 == t_next``, ``is2 = t2 < t01``, ``is1`` is
  neither: the first minimum, as ``argmin`` and the scalar oracle pick
  it — and advanced by ``t_a += is_a * tdelta_a``: adding an exact 0
  leaves the other axes' bits alone.
* **one exp per step, of the carried -tau.** The state holds the negated
  optical depth, so ``trans = exp(-tau)`` reads it directly; extinction
  is ``-tau < log(threshold)`` and a reflection adds ``log(rho)``. Every
  bit is the same as carrying ``tau``: IEEE negation is exact and
  round-to-nearest is symmetric in sign. ``trans`` is carried from step
  to step and recomputed only for lanes that just reflected; the step
  writes the new ``tcur`` and ``trans`` into the spare rows, and the two
  pairs then swap roles instead of being copied.
* **one event pass.** A step takes ``ended = class != ALIVE`` and its
  ``flatnonzero`` once, picks the wall hits out of that list, and
  rebuilds it only when a lane bounces back to life or dies of
  extinction.
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
dda.lanes_launched / dda.compactions / dda.rows_stepped`` (label
``handoff``) to the metrics registry; ``ray_steps`` counts live lanes,
``rows_stepped`` the rows the steps carried, live or parked. The
active-lane fraction, the SIMT-divergence analogue, is
``ray_steps / rows_stepped``.
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
    """Amanatides-Woo set-up of the rays ``launch``, one axis a row.

    Returns the float rows ``-tau, sum_i, tcur, trans``, two spare rows
    the step writes the next ``tcur, trans`` into, ``tmax x/y/z, tdelta
    x/y/z``, and the int rows ``lane`` (batch row), ``flat`` (cell offset
    into the stacked raveled arrays: the lane's window base plus its
    offset in that window), ``fstep x/y/z`` (offset step per axis
    crossing, by the lane's window's strides). The starts and the
    directions are read once each into ``(3, n)`` rows, so every product
    runs over one contiguous row; they die with this frame, and the
    march's memory high-water mark is the packed state. A launch of the
    whole batch reads it without an index.
    """
    n = launch.size
    whole = n == batch.n
    rows = slice(None) if whole else launch
    # the state before the scratch: the scratch then frees to the top of
    # the heap, not to a hole under the state, and the heap is not given
    # back to the system and faulted in again on every launch (E28)
    fstate = np.empty((12, n))
    istate = np.empty((5, n), dtype=np.int64)

    def by_axis(a):
        return a.T.copy() if whole else a.T.take(launch, axis=1)

    start, dirs = by_axis(origins), by_axis(batch.directions)
    level = windows[0]  # anchor and spacing are the level's, shared by every window
    cell = level.position_to_cell(start, nudge_dir=dirs if from_handoff else None)
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
    ntau, sum_i, tcur, trans = fstate[:4]
    tmax, tdelta = fstate[6:9], fstate[9:]
    lane, flat, fstep = istate[0], istate[1], istate[2:]
    lane[:] = launch
    np.negative(batch.tau[rows], out=ntau)
    sum_i[:] = batch.sum_i[rows]
    tcur[:] = 0.0
    np.exp(ntau, out=trans)
    flat[:] = base
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            d, c, dx = dirs[a], cell[a], level.dx[a]
            np.divide(level.anchor[a] + (c + (d > 0.0)) * dx - start[a], d, out=tmax[a])
            np.divide(dx, np.abs(d), out=tdelta[a])
            # an axis the ray never crosses (d is 0.0 or -0.0): tmax inf,
            # and tdelta 0, not inf: the advance multiplies by the axis
            # mask, and False * inf is NaN
            still = np.flatnonzero(d == 0.0)
            tmax[a, still] = np.inf
            tdelta[a, still] = 0.0
            fstep[a] = np.sign(d) * strides[a]
            flat += (c.astype(np.int64) - lo[a]) * strides[a]
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
    park = np.array([[sink], [0], [0], [0]])  # istate[1:] of a parked row: no index step

    # extinct once exp(-tau) < threshold, i.e. -tau < log(threshold)
    log_threshold = np.log(threshold)
    if max_steps is None:
        max_steps = 16 * (max(sum(w.box.extent) for w in windows) + 3)
    t_exit = np.empty(batch.n) if parking else None

    def retire(done: np.ndarray, status) -> int:
        """Scatter the lanes of rows ``done``, finished with ``status``,
        to the batch and park their rows on the sink; returns how many."""
        out = lane[done]
        batch.status[out] = status
        batch.tau[out] = -ntau[done]
        batch.sum_i[out] = sum_i[done]
        if parking:
            t_exit[out] = tcur[done]
        istate[1:, done] = park
        ntau[done] = 0.0  # never crosses the threshold
        return done.size

    def bind():
        """The named rows of the packed state; the (tcur, trans) pair the
        last step wrote starts at row ``cur``, the spare pair at ``6 - cur``."""
        return (
            *fstate[:2], *fstate[cur:cur + 2], *fstate[6 - cur:8 - cur], *fstate[6:], *istate,
            fstate[6:9].reshape(-1), fstate[9:].reshape(-1), istate[2:].reshape(-1),
        )

    cur = 2
    (ntau, sum_i, tcur, trans, t_next, trans_next, t0, t1, t2, d0, d1, d2,
     lane, flat, s0, s1, s2, tmax, tdelta, fstep) = bind()
    live = rows = n
    # a ray may launch already inside a wall cell (e.g. parked exactly on
    # the domain face and handed to a coarser level): it has reached the
    # wall — absorb it before the march
    at_wall = np.flatnonzero(_stacked([wall.reshape(-1) for wall in walls], False).take(flat))
    if at_wall.size:
        f = flat[at_wall]
        sigma_t4 = _stacked([w.sigma_t4.reshape(-1) for w in windows], 0.0)
        sum_i[at_wall] += abskg[f] * sigma_t4[f] * _INV_PI * trans[at_wall]
        live -= retire(at_wall, _WALL_HIT)

    steps = ray_steps = rows_stepped = compactions = 0
    while live and steps < max_steps:
        if 2 * live <= rows:
            # half the rows are parked: drop them
            keep = np.flatnonzero(flat != sink)
            fstate, istate = fstate.take(keep, axis=1), istate.take(keep, axis=1)
            rows = live
            compactions += 1
            (ntau, sum_i, tcur, trans, t_next, trans_next, t0, t1, t2, d0, d1, d2,
             lane, flat, s0, s1, s2, tmax, tdelta, fstep) = bind()
        steps += 1
        ray_steps += live
        rows_stepped += rows

        # the crossed axis: first minimum of (t0, t1, t2), as argmin picks it
        t01 = np.minimum(t0, t1)
        np.minimum(t01, t2, out=t_next)
        is0 = t0 == t_next
        is2 = t2 < t01
        is1 = is0 | is2
        np.logical_not(is1, out=is1)

        # sum_i += Ib * (exp(-tau_in) - exp(-tau_out)), exp(-tau_in) carried;
        # the spare rows take the step's tcur and trans, then swap roles
        ntau -= abskg.take(flat) * (t_next - tcur)
        np.exp(ntau, out=trans_next)
        sum_i += emis.take(flat) * (trans - trans_next)
        tcur, t_next, trans, trans_next, cur = t_next, tcur, trans_next, trans, 6 - cur

        # mask-multiply advance: adding an exact 0 leaves the other axes alone
        t0 += is0 * d0
        t1 += is1 * d1
        t2 += is2 * d2
        flat += is0 * s0
        flat += is1 * s1
        flat += is2 * s2

        # one event pass: the rows that ended; the list is rebuilt only
        # when a lane bounces back to life or dies of extinction
        state = cell_class.take(flat)
        ended = state != _ALIVE
        done = np.flatnonzero(ended)
        hit = done[state[done] == _WALL_HIT] if done.size else done
        if hit.size:
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
                # i.e. -tau gains ln(rho)
                ended[r] = False
                if r.size:
                    done = None
                ntau[r] += np.log(rho[bounce])
                trans[r] = np.exp(ntau[r])
                ax = is1[r] + 2 * is2[r]
                at = ax * rows + r  # (ax, r) in a raveled (3, rows) block
                back = -fstep[at]
                fstep[at] = back
                flat[r] += back  # back into the flow cell
                tmax[at] = tcur[r] + tdelta[at]
                if mirror:
                    # mirror the origin too, so that origin + t * direction
                    # stays the ray's position after the bounce
                    out = lane[r]
                    d_old = directions[out, ax]
                    origins[out, ax] += 2.0 * tcur[r] * d_old
                    directions[out, ax] = -d_old

        dead = ntau < log_threshold
        if dead.any():
            dying = np.flatnonzero(dead)
            dying = dying[~ended[dying]]
            if dying.size:
                state[dying] = _EXTINCT
                ended[dying] = True
                done = None
        if done is None:
            done = np.flatnonzero(ended)
        if done.size:
            live -= retire(done, state[done])

    if parking:
        # a parked lane never reflects again: its origin and direction
        # rows are final, so its exit position is taken once, here
        parked = launch[batch.status[launch] == _LEFT_ROI]
        exit_pos = origins.T.take(parked, axis=1)
        exit_pos += t_exit[parked] * directions.T.take(parked, axis=1)
        batch.exit_pos.T[:, parked] = exit_pos

    # kernel counters: active-lane fraction is ray_steps / rows_stepped
    metrics, handoff = get_metrics(), "1" if from_handoff else "0"
    metrics.counter("dda.calls", handoff=handoff).inc()
    metrics.counter("dda.steps", handoff=handoff).inc(steps)
    metrics.counter("dda.ray_steps", handoff=handoff).inc(ray_steps)
    metrics.counter("dda.lanes_launched", handoff=handoff).inc(n)
    metrics.counter("dda.compactions", handoff=handoff).inc(compactions)
    metrics.counter("dda.rows_stepped", handoff=handoff).inc(rows_stepped)
    if live:
        raise ReproError(
            f"{live} rays still alive after {max_steps} DDA steps — "
            f"grid/threshold configuration cannot terminate them"
        )
    return batch
