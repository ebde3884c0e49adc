"""A launch lays its fields out once: composition is invisible.

``DistributedRMCRT._fine_windows`` writes each trace task's window (the
wall ring, NaN where the task was sent nothing, its block region) straight
into its slice of the launch's :class:`~repro.core.fields.LevelFields`,
and the launch reduces del.q once over all its cells. Neither may show:
whichever K of a rank's ready tasks share a launch, each patch's del.q and
wall flux are byte-identical to the patch launched alone — with any halo,
rays a cell, wall faces, reflections, or a spectral model of one band or
of three with a tabulated wall emissivity (window ``b * K + k`` of the
launch's band stack is band ``b`` of patch ``k``'s window) — and a task
that reads past the data it was sent still fires the NaN guard, naming
that patch.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import DistributedRMCRT, benchmark_property_init, distributed
from repro.radiation import BurnsChristonBenchmark
from repro.radiation.spectral.model import SpectralModel
from repro.runtime import TaskContext
from repro.util.errors import ReproError

BENCH = BurnsChristonBenchmark(resolution=8)
#: eight 4^3 patches under a 4^3 coarse level: the serial scheduler runs
#: every trace task in one launch
GRID = BENCH.two_level_grid(refinement_ratio=2, fine_patch_size=4)


@lru_cache(maxsize=None)
def spectral_model(name):
    """None, the one-band gray limit, or three bands with the tungsten
    emissivity table on the walls: each built once for the module."""
    if name == "gray":
        return SpectralModel.gray_limit()
    if name == "three-band":
        return SpectralModel.build(
            bands=3, temperature=1400.0, kappa_exponent=0.8, emissivity="tungsten"
        )
    return None


def pipeline(halo=1, rays=1, faces=False, reflections=False, spectral=None, seed=0):
    return DistributedRMCRT(
        GRID, benchmark_property_init(BENCH), rays_per_cell=rays, halo=halo, seed=seed,
        reflections=reflections, wall_emissivity=0.6 if reflections else 1.0,
        wall_temperature=50.0, compute_boundary_flux=faces, flux_rays_per_face=2,
        spectral=spectral_model(spectral),
    )


def picked(ctxs, order, k):
    """``k`` of a launch's tasks, in the order ``order`` ranks patches."""
    by_id = {ctx.patch.patch_id: ctx for ctx in ctxs}
    return [by_id[i] for i in order if i in by_id][:k]


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    halo=st.integers(0, 3),
    rays=st.integers(1, 3),
    faces=st.booleans(),
    reflections=st.booleans(),
    spectral=st.sampled_from([None, "gray", "three-band"]),
    seed=st.integers(0, 2**31),
)
def test_a_launch_built_in_place_is_k_one_patch_launches(
    k, halo, rays, faces, reflections, spectral, seed
):
    assume(not (reflections and spectral))     # the options refuse the pair
    drm = pipeline(halo, rays, faces, reflections, spectral, seed)
    trace = drm._trace_cb
    order = np.random.default_rng(seed).permutation(len(GRID.finest_level.patches))
    compared = []

    def checking_trace(ctxs):
        launch = picked(ctxs, order, k)
        results = {}
        real_compute = TaskContext.compute

        def record(ctx, label, value):
            results.setdefault((label.name, ctx.patch.patch_id), []).append(np.array(value))

        TaskContext.compute = record
        try:
            trace(launch)
            for ctx in launch:
                trace([ctx])
        finally:
            TaskContext.compute = real_compute
        assert len(results) == len(launch) * (2 if faces else 1)
        for key, (launched, alone) in results.items():
            assert launched.dtype == alone.dtype and launched.shape == alone.shape, key
            assert launched.tobytes() == alone.tobytes(), key
            assert np.isfinite(launched).all(), key
        compared.extend(results)
        trace(ctxs)

    drm._trace_cb = checking_trace
    drm.solve("serial")
    assert len(compared) == min(k, 8) * (2 if faces else 1)


@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 6), faces=st.booleans(), seed=st.integers(0, 2**31))
def test_a_read_past_the_sent_data_names_its_patch(k, faces, seed):
    """One task of the launch parks a cell further out than its declared
    halo: its rays cross cells it was sent nothing for, and the launch
    fails naming that patch and no other."""
    drm = pipeline(halo=1, rays=2, faces=faces, seed=seed)
    trace = drm._trace_cb
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(GRID.finest_level.patches))
    fired = []

    def checking_trace(ctxs):
        launch = picked(ctxs, order, k)
        offender = launch[int(rng.integers(len(launch)))].patch
        real_roi = distributed.patch_roi

        def wide_roi(interior, box, halo):
            return real_roi(interior, box, halo + (box == offender.box))

        distributed.patch_roi = wide_roi
        try:
            with pytest.raises(ReproError, match=rf"patch {offender.patch_id} read cells outside"):
                trace(launch)
        finally:
            distributed.patch_roi = real_roi
        fired.append(offender.patch_id)
        trace(ctxs)

    drm._trace_cb = checking_trace
    drm.solve("serial")
    assert fired
