"""E4 — Burns & Christon accuracy: the expected Monte Carlo convergence.

Section III.C cites the accuracy study of ref [3]: single-level RMCRT
on the Burns & Christon benchmark shows the expected O(1/sqrt(N))
Monte Carlo convergence of del.q. This bench regenerates that study
against a high-order discrete-ordinates reference and additionally
verifies the multi-level solver agrees with single-level within noise.
"""

import pytest

from repro.core import MultiLevelRMCRT, SingleLevelRMCRT
from repro.perf import write_bench_artifact
from repro.radiation import BurnsChristonBenchmark, dom_reference_divq
from repro.radiation.analysis import monte_carlo_convergence

RESOLUTION = 16
RAY_COUNTS = [4, 16, 64, 256]


@pytest.fixture(scope="module")
def setup():
    bench = BurnsChristonBenchmark(resolution=RESOLUTION)
    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    reference = dom_reference_divq(props, grid.finest_level.dx,
                                   n_polar=8, n_azimuthal=16)
    return bench, grid, props, reference


def test_monte_carlo_convergence(benchmark, setup):
    bench, grid, props, reference = setup

    def solve(rays):
        return SingleLevelRMCRT(rays_per_cell=rays, seed=11).solve(grid, props).divq

    study = benchmark.pedantic(monte_carlo_convergence,
                               args=(solve, reference, RAY_COUNTS),
                               rounds=1, iterations=1)
    errors, slope = study.errors, study.order

    print("\n--- E4: Monte Carlo convergence (RMS error vs S_N reference) ---")
    print(f"{'rays/cell':>10} {'RMS error':>12}")
    for n, e in zip(RAY_COUNTS, errors):
        print(f"{n:>10} {e:>12.5f}")
    print(f"fitted order: {slope:.3f}  (expected ~ -0.5)")

    write_bench_artifact(
        "burns_christon_accuracy",
        params={"resolution": RESOLUTION, "seed": 11,
                "reference": "dom_reference_divq(n_polar=8, n_azimuthal=16)"},
        rows=[{"rays_per_cell": n, "rms_error": e}
              for n, e in zip(RAY_COUNTS, errors)],
        extra={"fitted_order": slope},
    )

    assert errors == sorted(errors, reverse=True)
    assert -0.75 < slope < -0.3


def test_multilevel_matches_single_level(benchmark, setup):
    bench, grid, props, reference = setup
    rays = 64

    def solve_multi():
        grid2 = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        props2 = bench.properties_for_level(grid2.finest_level)
        return MultiLevelRMCRT(rays_per_cell=rays, seed=11, halo=2).solve(
            grid2, props2
        )

    multi = benchmark.pedantic(solve_multi, rounds=1, iterations=1)
    single = SingleLevelRMCRT(rays_per_cell=rays, seed=11).solve(grid, props)
    rel = abs(multi.divq.mean() - single.divq.mean()) / single.divq.mean()
    print(f"\nmulti-level vs single-level mean del.q: {rel:.2%} apart "
          f"({rays} rays/cell)")
    assert rel < 0.03
