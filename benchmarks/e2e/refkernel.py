"""Frozen single-threaded reference kernel for the calibrated clock.

The benchmark box is shared: the same op drifts by up to 1.5x in bursts
of seconds inside one run. Timing this kernel right before and after
every op and dividing gives op times "on the nominal machine" that
repeat.

The kernel is the DDA step's operation mix (a 3-D gather, a
multiply-add, two ``np.exp``, ``argmin`` over (n, 3)) so that it slows
down with the same things the solver ops slow down with: core
contention, cache pressure and memory bandwidth. It comes in two shapes
(see SHAPES) because narrow launches and wide ones do not slow down
alike. It allocates nothing while timed: every result goes into a buffer
made once. A version with numpy temporaries ran anywhere from 92 to
111 ms per pass on a quiet box depending on the state of the process's
allocator, which made the calibrated times noisier than the raw ones.

NEVER EDIT after the PR that added it: every calibrated number in
baseline.json is a ratio to this kernel, so a change re-bases them all.
"""

from __future__ import annotations

import time

import numpy as np

GRID = 26

#: name -> ((lanes, iterations) per launch, seconds one pass takes on the
#: quiet nominal machine — the 2-core box this benchmark was sized on —
#: against which calibrated times are quoted). ``thin`` is 512-lane
#: launches, where numpy's per-call overhead dominates as it does in
#: pipeline_thin's 512-ray patches; ``tail`` adds one 60 000-lane launch
#: of the same duration, like a march that starts wide and thins out.
#: Thin code slowed down about twice as much as wide code under the same
#: disturbance, and a reference of the wrong shape mis-corrects by
#: 5-10 %: with a purely wide one longmarch_reflect and onion_fat still
#: read 8 % high in a 1.35x burst; with ``tail`` they read level.
SHAPES = {
    "thin": (((512, 2000),), 0.0425),
    "tail": (((60_000, 20), (512, 1000)), 0.0585),
}


class _Launch:
    """Fixed-seed inputs and work buffers for one launch width."""

    def __init__(self, lanes: int, iterations: int) -> None:
        rng = np.random.default_rng(20160523)
        self.iterations = iterations
        self.field = rng.random(GRID ** 3)
        self.cx, self.cy, self.cz = rng.integers(0, GRID, size=(3, lanes))
        self.tmax = rng.random((lanes, 3))
        self.row_start = np.arange(lanes) * 3
        self.index = np.empty(lanes, dtype=np.intp)
        self.f = [np.empty(lanes) for _ in range(6)]

    def run(self) -> float:
        index = self.index
        tau, total, seg, kap, tau_new, tmp = self.f
        tau[:] = 0.0
        total[:] = 0.0
        tmax_flat = self.tmax.reshape(-1)
        for _ in range(self.iterations):
            # seg = tmax[rows, argmin(tmax, axis=1)]
            np.argmin(self.tmax, axis=1, out=index)
            np.add(index, self.row_start, out=index)
            np.take(tmax_flat, index, out=seg)
            # kap = field[cx, cy, cz]
            np.multiply(self.cx, GRID, out=index)
            np.add(index, self.cy, out=index)
            np.multiply(index, GRID, out=index)
            np.add(index, self.cz, out=index)
            np.take(self.field, index, out=kap)
            # total += kap * (exp(-tau) - exp(-(tau + kap * seg)))
            np.multiply(kap, seg, out=tau_new)
            np.add(tau_new, tau, out=tau_new)
            np.negative(tau, out=tmp)
            np.exp(tmp, out=tmp)
            np.negative(tau_new, out=seg)
            np.exp(seg, out=seg)
            np.subtract(tmp, seg, out=tmp)
            np.multiply(tmp, kap, out=tmp)
            np.add(total, tmp, out=total)
            # halving keeps tau (and so both exp) in one range however
            # many iterations run
            np.multiply(tau_new, 0.5, out=tau)
        return float(total.sum())


class ReferenceKernel:
    """The timed kernel in one of the SHAPES."""

    def __init__(self, shape: str) -> None:
        launches, self.nominal_s = SHAPES[shape]
        self.launches = [_Launch(lanes, iterations) for lanes, iterations in launches]

    def run(self) -> float:
        """One reference pass; returns a checksum so the work is consumed."""
        return sum(launch.run() for launch in self.launches)

    def time_once(self) -> float:
        """Wall seconds of one pass."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
