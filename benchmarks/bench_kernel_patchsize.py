"""E5 — kernel throughput vs patch size: the GPU/CPU contrast.

Real (measured, not modelled) timings of the two marching kernels on
Burns & Christon patches of growing size:

* the vectorized batch kernel (this reproduction's "device" path:
  SoA state, masked divergence, one lane per ray), and
* the scalar per-ray loop (the "CPU" reference path).

The paper's Section V premise — larger patches provide more work per
kernel launch and better throughput — shows up here as cells*rays/s
rising with patch size for the batch kernel while the scalar path
stays flat. One more row defends the fused small-patch launch: the 27
patches of 8^3 at one ray a cell that ``pipeline_thin`` traces, drawn,
marched and reduced as one ``trace_patch_multi_level`` launch on their
own windows — that workload's kernel without the runtime around it.

Results land in ``BENCH_kernel_patchsize.json`` (one row per
kernel/patch sweep point), so cross-PR comparisons are a JSON diff.
"""

import numpy as np
import pytest

from repro.core import (
    LevelFields,
    TraceOptions,
    patch_roi,
    project_to_coarser_levels,
    trace_patch_multi_level,
    trace_patch_single_level,
)
from repro.core.cpu_kernel import trace_rays_scalar
from repro.core.rays import generate_patch_rays
from repro.grid import Box
from repro.perf import write_bench_artifact
from repro.radiation import BurnsChristonBenchmark

RAYS = 8


@pytest.fixture(scope="module")
def artifact_rows():
    """Accumulates one row per sweep point; the artifact is written
    once, after every test in the module has contributed."""
    rows = []
    yield rows
    write_bench_artifact(
        "kernel_patchsize",
        params={"rays_per_cell": RAYS, "resolution": 24,
                "batch_patches": [4, 8, 16, 24], "scalar_patches": [4, 8],
                "fused": {"patches": 27, "patch": 8, "rays_per_cell": 1, "halo": 2}},
        rows=rows,
    )


def make_fields(resolution):
    bench = BurnsChristonBenchmark(resolution=resolution)
    grid = bench.single_level_grid()
    level = grid.finest_level
    props = bench.properties_for_level(level)
    return LevelFields.from_properties(level, props)


@pytest.mark.parametrize("patch", [4, 8, 16, 24])
def test_vectorized_kernel_throughput(benchmark, artifact_rows, patch):
    fields = make_fields(24)
    box = Box.cube(patch)
    rng = np.random.default_rng(0)

    def run():
        return trace_patch_single_level(fields, box, TraceOptions(rays_per_cell=RAYS), rng)

    benchmark.pedantic(run, rounds=3, iterations=1)
    cell_rays = box.volume * RAYS
    rate = cell_rays / benchmark.stats.stats.mean
    print(f"\nbatch kernel, patch {patch}^3: {rate:,.0f} cell-rays/s")
    artifact_rows.append({
        "kernel": "batch",
        "patch": patch,
        "cell_rays_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


@pytest.mark.parametrize("patch", [4, 8])
def test_scalar_kernel_throughput(benchmark, artifact_rows, patch):
    fields = make_fields(24)
    box = Box.cube(patch)
    rng = np.random.default_rng(0)
    origins, dirs = generate_patch_rays(fields, [box], RAYS, [rng])

    def run():
        return trace_rays_scalar(fields, origins, dirs)

    benchmark.pedantic(run, rounds=3, iterations=1)
    rate = origins.shape[0] / benchmark.stats.stats.mean
    print(f"\nscalar kernel, patch {patch}^3: {rate:,.0f} rays/s")
    artifact_rows.append({
        "kernel": "scalar",
        "patch": patch,
        "rays_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


def test_fused_small_patch_launch(benchmark, artifact_rows):
    """27 patches of 8^3, one ray a cell, halo 2, under a ratio-4 coarse
    level: one launch over the patches' own windows, as a rank runs
    them in ``pipeline_thin``."""
    bench = BurnsChristonBenchmark(resolution=24)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    level = grid.finest_level
    bundles = project_to_coarser_levels(grid, bench.properties_for_level(level))
    *coarse, fine = [
        LevelFields.from_properties(grid.level(i), props) for i, props in enumerate(bundles)
    ]
    windows, sources, patches = [], [], []
    for patch in level.patches:
        roi = patch_roi(level.domain_box, patch.box, 2)
        window = roi.grow(1).intersect(fine.ring_box)
        sl = window.slices(origin=fine.ring_box.lo)
        windows.append(window)
        sources.append([a[sl] for a in fine.views(0)])
        patches.append((patch.box, roi, patch.patch_id))
    assert len(windows) == 27

    def launch_fields():
        # a distributed launch lays its windows out a launch at a time
        stack = LevelFields(fine.interior, fine.dx, fine.anchor, windows)
        for k, arrays in enumerate(sources):
            for view, data in zip(stack.views(k), arrays):
                view[...] = data
        return stack

    def run():
        return trace_patch_multi_level(
            coarse, launch_fields(),
            [(box, roi, np.random.default_rng(pid)) for box, roi, pid in patches],
            TraceOptions(rays_per_cell=1),
        )

    benchmark.pedantic(run, rounds=5, iterations=1)
    cell_rays = 27 * 8 ** 3
    rate = cell_rays / benchmark.stats.stats.mean
    print(f"\nfused launch, 27 x 8^3 x 1 ray: {rate:,.0f} cell-rays/s")
    artifact_rows.append({
        "kernel": "fused_multi_level",
        "patch": 8,
        "patches": 27,
        "cell_rays_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


def test_batch_beats_scalar(benchmark, artifact_rows):
    """The device-style kernel's throughput advantage (the reason the
    GPU port exists) — measured, must be at least ~5x here."""
    import time

    fields = make_fields(16)
    box = Box.cube(8)
    rng = np.random.default_rng(1)
    origins, dirs = generate_patch_rays(fields, [box], RAYS, [rng])

    def compare():
        t0 = time.perf_counter()
        trace_rays_scalar(fields, origins, dirs)
        t_scalar = time.perf_counter() - t0
        t0 = time.perf_counter()
        trace_patch_single_level(
            fields, box, TraceOptions(rays_per_cell=RAYS),
            np.random.default_rng(1),
        )
        t_batch = time.perf_counter() - t0
        return t_scalar / t_batch

    speedup = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nbatch vs scalar speedup on {box.volume * RAYS} rays: {speedup:.1f}x")
    artifact_rows.append({
        "kernel": "batch_vs_scalar",
        "patch": 8,
        "speedup": speedup,
    })
    assert speedup > 5.0
