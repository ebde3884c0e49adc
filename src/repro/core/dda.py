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
  as ``(3, n)`` rows (the launch draw's own, without a copy) and
  computes the start cell, ``tmax``, ``tdelta`` and the index steps one
  contiguous row at a time (an ``(n, 3)`` array broadcast against a
  3-vector runs NumPy's inner loop three elements at a time); the exit
  positions are taken the same way.
* **per-launch scratch.** Beside the state, a launch allocates a float
  work row and five int8 flag rows once; every temporary of a
  step (the gathers, the crossed-axis masks, the advance products, the
  ended and extinct masks) and of the set-up is written into them with
  ``out=``, so a step allocates nothing a lane and the launch's memory
  high-water mark is its state and scratch (held twice, briefly, at a
  compaction, which takes the live lanes into fresh blocks).
* **flat cell index.** The cell is one offset into the raveled property
  arrays, and one gather of an int8 *cell class* (the status a ray ends
  with on entering the cell: wall, or outside the ROI) replaces the
  cell-type lookup and the six ROI compares.
* **stacked windows.** A level reaches ``march`` laid out once, as a
  :class:`~repro.core.fields.LevelFields`: one launch serves several
  patch tasks, their fine windows' raveled arrays end to end, a lane's
  flat index starting at its window's base and stepping by its window's
  strides (the step is a per-lane row already), so lanes of different
  patches share each step's fixed cost and never each other's data. A
  call builds only the ROI cell class (a view of the wall mask when there
  is no ROI); the rest of the stack it reads as laid out.
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
  ``nonzero`` once, picks the wall hits out of that list, and
  rebuilds it only when a lane bounces back to life or dies of
  extinction.
* **park, then half-compact.** A finished lane is scattered to the
  batch and its row *parked*: pointed at a sink cell laid after the
  stacked windows (no absorption, no emission, class ALIVE) with a zero
  index step and zero optical depth (one row write each), so it marches
  in place adding exactly zero and never ends again — the masked-lane
  idiom for SIMT divergence. The rows are physically compacted only
  once half of them are parked, so a launch copies at most about twice
  its lanes instead of one row per ray-step. A parked lane's exit time
  is kept and its exit position computed once, at the end of the
  launch.

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
        # no copy: the launch draw's by-axis rows reach the set-up as drawn
        origins = np.asarray(origins, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
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


def _check_rois(fields: LevelFields, rois) -> None:
    """Every lane must stay inside its own window: a ray ends in the wall
    ring or, with an ROI, at most one cell outside it. A window short of
    the level's ring box needs an ROI."""
    ring = fields.ring_box
    for box, roi in zip(fields.boxes, rois):
        if roi is not None and not ring.contains_box(roi):
            raise ReproError(f"roi {roi} escapes level ring box {ring}")
        if box != ring and (roi is None or not box.contains_box(roi.grow(1).intersect(ring))):
            raise ReproError(
                f"window {box} must hold its roi and the cells around it, got roi {roi}"
            )


def _cell_class(fields: LevelFields, rois) -> np.ndarray:
    """The status a ray ends with on entering each cell of the stack
    (ALIVE: marches on, as at the sink); outside its window's ROI wins
    over wall."""
    wall = fields.wall.view(np.int8)  # True is WALL_HIT
    if all(roi is None for roi in rois):
        return wall
    cell_class = np.full(wall.shape, _LEFT_ROI, dtype=np.int8)
    cell_class[fields.sink] = _ALIVE
    for (cells, extent), box, roi in zip(fields.slots, fields.boxes, rois):
        inside = ... if roi is None else roi.slices(origin=box.lo)
        cell_class[cells].reshape(extent)[inside] = wall[cells].reshape(extent)[inside]
    return cell_class


def _launch_rows(n):
    """The state and scratch rows of ``n`` lanes, in two blocks: the 12
    float state rows and the float work row; the 5 int state rows and a
    row whose bytes hold the 5 int8 flag rows. A compaction takes the live
    lanes into two fresh blocks. Where a launch's blocks land decides
    whether glibc trims the heap and every launch faults it back in; this
    layout is the one of those sized that never lost (E28, E30)."""
    fblock, iblock = np.empty((13, n)), np.empty((6, n), dtype=np.int64)
    return fblock[:12], iblock[:5], fblock[12], iblock[5].view(np.int8).reshape(8, n)[:5]


def _launch_state(fields, window_of, batch, launch, origins, from_handoff):
    """Amanatides-Woo set-up of the rays ``launch`` (batch rows, or
    ``slice(None)`` for the whole batch), one axis a row.

    Returns the float rows ``-tau, sum_i, tcur, trans``, two spare rows
    the step writes the next ``tcur, trans`` into, ``tmax x/y/z, tdelta
    x/y/z``; the int rows ``lane`` (batch row), ``flat`` (cell offset
    into the stack: the lane's window base plus its offset in that
    window), ``fstep x/y/z`` (offset step per axis crossing, by the
    lane's window's strides); and the launch's scratch: a float work row
    and five int8 flag rows, which every step (and this set-up) writes
    its temporaries into. The starts and the directions are read as
    ``(3, n)`` rows, so every product runs over one contiguous row; a
    launch of the whole batch reads them, and the batch's other rows,
    without an index or a copy when they are by-axis already (as the
    launch draw makes them). The start cells are taken into the ``tmax``
    rows and a fused launch's window geometry into the ``tdelta`` rows,
    so the set-up's high-water mark is the state and its scratch. The
    offsets are whole numbers, exact in floats: they are summed as
    floats and converted once, and a step is the stride signed as the
    direction.
    """
    whole = isinstance(launch, slice)
    n = batch.n if whole else launch.size
    fstate, istate, work, flags = _launch_rows(n)

    def by_axis(a):
        return np.ascontiguousarray(a.T) if whole else a.T.take(launch, axis=1)

    start, dirs = by_axis(origins), by_axis(batch.directions)
    ntau, sum_i, tcur, trans, acc = fstate[:5]  # acc: a spare row until the march
    tmax, tdelta = fstate[6:9], fstate[9:]
    lane, flat, fstep = istate[0], istate[1], istate[2:]
    flag = flags[0].view(np.bool_)
    # x and y strides and cell (0, 0, 0)'s offset: scalars for a lone
    # window, per-lane rows for a fused launch
    geometry = fields.geometry
    if geometry.shape[1] == 1:
        s0, s1, origin = geometry[:, 0]
    else:
        s0, s1, origin = geometry.take(window_of[launch], axis=1, out=tdelta, mode="clip")
    lane[:] = np.arange(n) if whole else launch
    np.negative(batch.tau[launch], out=ntau)
    sum_i[:] = batch.sum_i[launch]
    tcur[:] = 0.0
    np.exp(ntau, out=trans)
    fields.position_to_cell(start, nudge_dir=dirs if from_handoff else None, out=tmax)
    np.multiply(tmax[0], s0, out=acc)
    np.multiply(tmax[1], s1, out=work)
    acc += work
    acc += tmax[2]
    acc += origin
    flat[:] = acc
    for a, stride in enumerate((s0, s1, 1.0)):
        np.copysign(stride, dirs[a], out=work)
        fstep[a] = work
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            d, t, dx = dirs[a], tmax[a], fields.dx[a]
            # t holds the start cell: the next face is one up for d > 0
            np.greater(d, 0.0, out=flag)
            t += flag
            t *= dx
            t += fields.anchor[a]
            t -= start[a]
            t /= d
            np.abs(d, out=tdelta[a])
            np.divide(dx, tdelta[a], out=tdelta[a])
            # an axis the ray never crosses (d is 0.0 or -0.0): tmax inf,
            # no step, and tdelta 0, not inf: the advance multiplies by
            # the axis mask, and False * inf is NaN
            np.equal(d, 0.0, out=flag)
            still = flag.nonzero()[0]
            tmax[a, still] = np.inf
            tdelta[a, still] = 0.0
            fstep[a, still] = 0
    return fstate, istate, work, flags


def march(
    fields: LevelFields,
    batch: RayBatch,
    roi: Union[None, Box, Sequence[Box]] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    max_steps: Optional[int] = None,
    from_handoff: bool = False,
    window_of: Optional[np.ndarray] = None,
) -> RayBatch:
    """March every ALIVE/LEFT_ROI ray of ``batch`` through ``fields``.

    ``fields`` is a level laid out as a launch marches it
    (:class:`~repro.core.fields.LevelFields`): K windows of the level,
    or the whole level as the K = 1 case. ``roi`` restricts marching to a
    cell-index box (which must lie within the level's ring box) — one a
    window, a sequence when K > 1; rays stepping outside it are parked
    with status LEFT_ROI and a recorded exit position. Without ``roi``
    rays always terminate inside the wall ring, which encloses the
    domain by construction.

    One launch can serve several patch tasks: ``window_of[r]`` is the
    window ray ``r`` marches in. Each lane reads its own window's data
    under its own ROI — a lane's flat index starts at its window's base
    and steps by its window's strides — so the result is bit-identical
    to K separate marches. Only the ROI cell class is built here, a call
    at a time; the rest of the stack is read as it was laid out.

    ``from_handoff`` re-launches previously parked rays from their exit
    positions (nudged along the direction so positions exactly on a
    coarse face land downstream).

    Returns ``batch`` (mutated in place) for chaining. With ``roi`` and
    ``reflections`` together ``batch.directions`` is replaced by a copy
    holding every ray's heading after its last reflection, so a parked
    ray continues the right way on the coarser level.
    """
    k = len(fields.boxes)
    rois = [roi] * k if roi is None or isinstance(roi, Box) else list(roi)
    if len(rois) != k:
        raise ReproError(f"{k} windows but {len(rois)} rois")
    if k > 1 and window_of is None:
        raise ReproError("a launch over several windows needs window_of")
    _check_rois(fields, rois)
    if not 0.0 <= threshold <= 1.0:
        # a parked row's optical depth is 0: it must never read as extinct
        raise ReproError(f"transmissivity threshold {threshold} must lie in [0, 1]")
    parking = any(r is not None for r in rois)

    if from_handoff:
        launching = batch.status == RayStatus.LEFT_ROI
        origins = batch.exit_pos
    else:
        launching = batch.status == RayStatus.ALIVE
        origins = batch.origins
    n = int(np.count_nonzero(launching))
    if n == 0:
        return batch
    # a launch of the whole batch is its rows in order: no index is kept
    whole = n == batch.n
    launch = slice(None) if whole else launching.nonzero()[0]
    del launching
    mirror = parking and reflections
    if mirror:
        # a reflection mirrors the origin and flips the direction of a
        # ray that may park later: work on copies, not the caller's arrays
        origins = origins.copy(order="K")
        batch.directions = batch.directions.copy(order="K")
    directions = batch.directions

    fstate, istate, work, flags = _launch_state(
        fields, window_of, batch, launch, origins, from_handoff
    )
    # the sink cell, after the stacked windows: a parked row marches in
    # place there adding exactly zero, and never ends again
    abskg, emis, sink = fields.abskg, fields.emis, fields.sink
    cell_class = _cell_class(fields, rois)

    # extinct once exp(-tau) < threshold, i.e. -tau < log(threshold)
    log_threshold = np.log(threshold)
    if max_steps is None:
        max_steps = 16 * (max(sum(box.extent) for box in fields.boxes) + 3)
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
        # the sink, no index step, and an optical depth that never
        # crosses the threshold; one row at a time, not one 2-D write
        flat[done] = sink
        s0[done] = 0
        s1[done] = 0
        s2[done] = 0
        ntau[done] = 0.0
        return done.size

    def bind():
        """The named rows of the packed state; the (tcur, trans) pair the
        last step wrote starts at row ``cur``, the spare pair at ``6 - cur``."""
        return (
            *fstate[:2], *fstate[cur:cur + 2], *fstate[6 - cur:8 - cur], *fstate[6:], *istate,
            fstate[6:9].reshape(-1), fstate[9:].reshape(-1), istate[2:].reshape(-1),
        )

    def bind_scratch():
        """The scratch rows cut to the rows in flight: the float work row
        (read as int64 too), the crossed-axis masks, the ended mask and
        the int8 cell class of each row."""
        tmp = work[:rows]
        is0, is1, is2, ended = flags[:4, :rows].view(np.bool_)
        return tmp, tmp.view(np.int64), is0, is1, is2, ended, flags[4, :rows]

    cur = 2
    live = rows = n
    (ntau, sum_i, tcur, trans, t_next, trans_next, t0, t1, t2, d0, d1, d2,
     lane, flat, s0, s1, s2, tmax, tdelta, fstep) = bind()
    tmp, itmp, is0, is1, is2, ended, state = bind_scratch()
    # a ray may launch already inside a wall cell (e.g. parked exactly on
    # the domain face and handed to a coarser level): it has reached the
    # wall — absorb it before the march
    fields.wall.take(flat, out=ended, mode="clip")
    at_wall = ended.nonzero()[0]
    if at_wall.size:
        f = flat[at_wall]
        sum_i[at_wall] += abskg[f] * fields.sigma_t4[f] * _INV_PI * trans[at_wall]
        live -= retire(at_wall, _WALL_HIT)

    # every temporary of a step goes into the scratch rows: a gather or a
    # ufunc with out=, and `take` with mode="clip" (every index is in
    # range, and the default mode would buffer the out row)
    steps = ray_steps = rows_stepped = compactions = 0
    while live and steps < max_steps:
        if 2 * live <= rows:
            # half the rows are parked: drop them
            np.not_equal(flat, sink, out=ended)
            keep = ended.nonzero()[0]
            kept_f, kept_i, work, flags = _launch_rows(live)
            fstate.take(keep, axis=1, out=kept_f, mode="clip")
            istate.take(keep, axis=1, out=kept_i, mode="clip")
            fstate, istate = kept_f, kept_i
            rows = live
            compactions += 1
            (ntau, sum_i, tcur, trans, t_next, trans_next, t0, t1, t2, d0, d1, d2,
             lane, flat, s0, s1, s2, tmax, tdelta, fstep) = bind()
            tmp, itmp, is0, is1, is2, ended, state = bind_scratch()
        steps += 1
        ray_steps += live
        rows_stepped += rows

        # the crossed axis: first minimum of (t0, t1, t2), as argmin picks
        # it; tmp holds t01 = min(t0, t1)
        np.minimum(t0, t1, out=tmp)
        np.minimum(tmp, t2, out=t_next)
        np.equal(t0, t_next, out=is0)
        np.less(t2, tmp, out=is2)
        np.logical_or(is0, is2, out=is1)
        np.logical_not(is1, out=is1)

        # sum_i += Ib * (exp(-tau_in) - exp(-tau_out)), exp(-tau_in) carried;
        # the spare rows take the step's tcur and trans, then swap roles.
        # Until they are written, trans_next holds the segment length and
        # the old trans row its drop: both are spare by then
        np.subtract(t_next, tcur, out=trans_next)
        abskg.take(flat, out=tmp, mode="clip")
        tmp *= trans_next
        ntau -= tmp
        np.exp(ntau, out=trans_next)
        np.subtract(trans, trans_next, out=trans)
        emis.take(flat, out=tmp, mode="clip")
        trans *= tmp
        sum_i += trans
        tcur, t_next, trans, trans_next, cur = t_next, tcur, trans_next, trans, 6 - cur

        # mask-multiply advance: adding an exact 0 leaves the other axes alone
        np.multiply(is0, d0, out=tmp)
        t0 += tmp
        np.multiply(is1, d1, out=tmp)
        t1 += tmp
        np.multiply(is2, d2, out=tmp)
        t2 += tmp
        np.multiply(is0, s0, out=itmp)
        flat += itmp
        np.multiply(is1, s1, out=itmp)
        flat += itmp
        np.multiply(is2, s2, out=itmp)
        flat += itmp

        # one event pass: the rows that ended; the list is rebuilt only
        # when a lane bounces back to life or dies of extinction
        cell_class.take(flat, out=state, mode="clip")
        np.not_equal(state, _ALIVE, out=ended)
        done = ended.nonzero()[0]
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

        dead = is0  # is0's row is free once the advance is done
        np.less(ntau, log_threshold, out=dead)
        if dead.any():
            dying = dead.nonzero()[0]
            dying = dying[~ended[dying]]
            if dying.size:
                state[dying] = _EXTINCT
                ended[dying] = True
                done = None
        if done is None:
            done = ended.nonzero()[0]
        if done.size:
            live -= retire(done, state[done])

    if parking:
        # a parked lane never reflects again: its origin and direction
        # rows are final, so its exit position is taken once, here
        parked = (batch.status[launch] == _LEFT_ROI).nonzero()[0]
        if not whole:
            parked = launch[parked]
        exit_pos = origins.T.take(parked, axis=1)
        exit_pos += t_exit[parked] * directions.T.take(parked, axis=1)
        for row, pos in zip(batch.exit_pos.T, exit_pos):  # a row at a time, not one 2-D write
            row[parked] = pos

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
