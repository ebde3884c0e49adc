"""E19 — spectral tracer throughput and the cost of wavelength sampling.

Real timings of the wavelength-sampled spectral RMCRT path against the
gray kernel it extends:

* the gray single-level solver (the baseline everything is priced
  against),
* the spectral tracer in its gray limit (one band — pure subsystem
  overhead: band sampling, per-band field indirection, weighting), and
* genuinely spectral solves (3 bands, power-law kappa, tungsten
  emissivity on hot walls) for vectorized and scalar backends.

The headline number is the spectral-vs-gray cost factor at equal ray
budget — how much a run pays for band-resolved physics. Results land
in ``BENCH_spectral_tracer.json`` and gate in CI against the committed
baseline.

An ungated info row prices the one estimator: a WSGG band set sampled
a band a ray against the stratified loop of one gray solve a band, at
equal rays (agreement of the domain means, per-cell noise, wall time).
"""

import time

import numpy as np
import pytest

from repro.core.single_level import SingleLevelRMCRT
from repro.perf import write_bench_artifact
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.spectral.model import SpectralModel
from repro.radiation.spectral.scenario import SpectralCase
from repro.radiation.spectral.viewfactor import EnclosureScenario
from tests.test_spectral_intrusions import COMBUSTION, band_loop, wsgg_model

RAYS = 8
RESOLUTION = 12


@pytest.fixture(scope="module")
def artifact_rows():
    """Accumulates one row per sweep point; the artifact is written
    once, after every test in the module has contributed."""
    rows = []
    yield rows
    write_bench_artifact(
        "spectral_tracer",
        params={"rays_per_cell": RAYS, "resolution": RESOLUTION,
                "bands_swept": [1, 3]},
        rows=rows,
    )


def make_case(bands, name):
    if bands == 1:
        model = SpectralModel.gray_limit()
    else:
        model = SpectralModel.build(
            bands=bands, temperature=1400.0, kappa_exponent=0.8,
            emissivity="tungsten",
        )
    return SpectralCase(
        name=name, model=model, resolution=RESOLUTION,
        rays_per_cell=RAYS, wall_temperature=0.0 if bands == 1 else 0.5,
    )


def test_gray_solver_throughput(benchmark, artifact_rows):
    case = make_case(1, "gray-baseline")
    grid, props = case.prepare()
    solver = SingleLevelRMCRT(rays_per_cell=RAYS)

    result = benchmark.pedantic(
        lambda: solver.solve(grid, props), rounds=3, iterations=1
    )
    rate = result.rays_traced / benchmark.stats.stats.mean
    print(f"\ngray solver: {rate:,.0f} cell-rays/s")
    artifact_rows.append({
        "tracer": "gray",
        "bands": 1,
        "cell_rays_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


@pytest.mark.parametrize("bands", [1, 3])
def test_spectral_vectorized_throughput(benchmark, artifact_rows, bands):
    case = make_case(bands, f"spectral-{bands}band")
    grid, props = case.prepare()
    tracer = case.tracer(backend="vectorized")

    result = benchmark.pedantic(
        lambda: tracer.solve(grid, props), rounds=3, iterations=1
    )
    rate = result.rays_traced / benchmark.stats.stats.mean
    print(f"\nspectral vectorized, {bands} band(s): {rate:,.0f} cell-rays/s")
    artifact_rows.append({
        "tracer": "spectral-vectorized",
        "bands": bands,
        "cell_rays_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


def test_spectral_vs_gray_cost(benchmark, artifact_rows):
    """The E19 headline: band-resolved physics priced as a cost factor
    over the gray kernel at an identical ray budget."""
    case = make_case(3, "spectral-cost")
    grid, props = case.prepare()
    tracer = case.tracer(backend="vectorized")
    gray_case = make_case(1, "gray-cost")
    gray_grid, gray_props = gray_case.prepare()
    solver = SingleLevelRMCRT(rays_per_cell=RAYS)

    def compare():
        t0 = time.perf_counter()
        solver.solve(gray_grid, gray_props)
        t_gray = time.perf_counter() - t0
        t0 = time.perf_counter()
        tracer.solve(grid, props)
        t_spectral = time.perf_counter() - t0
        return t_spectral / t_gray

    cost = benchmark.pedantic(compare, rounds=3, iterations=1)
    print(f"\nspectral(3-band)/gray cost factor: {cost:.2f}x")
    artifact_rows.append({
        "tracer": "spectral_vs_gray",
        "bands": 3,
        "cost_factor": cost,
    })
    # the spectral estimator reuses the gray march per band group; it
    # must stay within a small constant of the gray kernel, not blow up
    assert cost < 10.0


def test_enclosure_throughput(benchmark, artifact_rows):
    case = EnclosureScenario(
        model=SpectralModel.build(
            bands=3, temperature=1200.0, emissivity="ceramic",
        ),
        samples_per_face=20000,
    )

    result = benchmark.pedantic(lambda: case.solve(), rounds=3, iterations=1)
    rate = result.rays_traced / benchmark.stats.stats.mean
    print(f"\nenclosure view-factor solve: {rate:,.0f} samples/s")
    artifact_rows.append({
        "tracer": "enclosure",
        "bands": 3,
        "samples_per_s": rate,
        "mean_s": benchmark.stats.stats.mean,
    })


def test_band_loop_vs_sampled_trace(artifact_rows):
    """The price of one estimator: the 3-band WSGG set on Burns &
    Christon 10^3, 12 seeds, 16 rays a band for the loop and 48 a cell
    for the sampled trace."""
    bench = BurnsChristonBenchmark(resolution=10)
    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    model = wsgg_model(*COMBUSTION)
    runs = {"loop": [], "sampled": []}
    wall = {"loop": 0.0, "sampled": 0.0}
    seeds = range(1000, 1012)
    for seed in seeds:
        t0 = time.perf_counter()
        runs["loop"].append(band_loop(grid, props, model, 16, seed))
        t1 = time.perf_counter()
        solver = SingleLevelRMCRT(rays_per_cell=48, seed=seed, spectral=model)
        runs["sampled"].append(solver.solve(grid, props).divq)
        wall["loop"] += t1 - t0
        wall["sampled"] += time.perf_counter() - t1
    row = {"tracer": "band_loop_vs_sampled", "bands": 3, "seeds": len(seeds)}
    cell_std = {}
    for name, divqs in runs.items():
        divqs = np.array(divqs)
        means = divqs.reshape(len(seeds), -1).mean(axis=1)
        row[f"{name}_domain_mean"] = float(means.mean())
        row[f"{name}_domain_mean_err"] = float(means.std(ddof=1) / np.sqrt(len(seeds)))
        cell_std[name] = divqs.std(axis=0, ddof=1)
        row[f"{name}_cell_rel_std"] = float(np.mean(cell_std[name] / divqs.mean(axis=0)))
        row[f"{name}_wall_per_estimate"] = wall[name] / len(seeds)
    row["z"] = (row["sampled_domain_mean"] - row["loop_domain_mean"]) / float(
        np.hypot(row["loop_domain_mean_err"], row["sampled_domain_mean_err"]))
    gap = np.abs(np.mean(runs["sampled"], axis=0) - np.mean(runs["loop"], axis=0))
    sigma = np.hypot(cell_std["loop"], cell_std["sampled"]) / np.sqrt(len(seeds))
    row["cells_outside_3sigma"] = float(np.mean(gap > 3.0 * sigma))
    print("\nWSGG 3-band, loop vs sampled: " + ", ".join(
        f"{k} {v:.5g}" for k, v in row.items() if isinstance(v, float)))
    artifact_rows.append(row)
    assert abs(row["z"]) < 3.0
