"""``python -m repro spectral`` — the spectral subsystem's front end.

Subcommands:

* ``smoke`` — the CI gate: a small spectral solve cross-checked four
  ways (vectorized vs scalar backend, gray-limit vs the gray solver
  bit-for-bit, multi-band physical sanity, a 2-rank distributed
  two-level solve vs the serial direct one bit-for-bit). Exit 1 on any
  mismatch.
* ``run <scenario>`` — solve a named volume scenario and print the
  del.q summary and band census.
* ``enclosure`` — solve the view-factor enclosure scenario and print
  the view-factor matrix, per-face fluxes, and energy balance.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.util.errors import ReproError


def _census(solve, nbands):
    """``solve()``'s result and its band census: the rays the trace
    drew into each band (its ``spectral.rays`` counters)."""
    from repro.perf.metrics import MetricsRegistry, set_metrics

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        result = solve()
    finally:
        set_metrics(previous)
    return result, [int(registry.value("spectral.rays", band=b)) for b in range(nbands)]


def _cmd_smoke(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro spectral smoke",
        description="Cross-validate the spectral tracers (CI gate).",
    )
    parser.add_argument("--resolution", type=int, default=8)
    parser.add_argument("--rays-per-cell", type=int, default=8)
    parser.add_argument("--bands", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.core.distributed import DistributedRMCRT, benchmark_property_init
    from repro.core.multi_level import MultiLevelRMCRT
    from repro.core.single_level import SingleLevelRMCRT
    from repro.radiation.benchmark import BurnsChristonBenchmark
    from repro.radiation.spectral.model import SpectralModel
    from repro.radiation.spectral.scenario import SpectralCase

    failures = []

    # 1. gray limit must reproduce the gray solver bit-for-bit
    case = SpectralCase(
        name="smoke-gray",
        model=SpectralModel.gray_limit(),
        resolution=args.resolution,
        rays_per_cell=args.rays_per_cell,
        seed=args.seed,
    )
    grid, props = case.prepare()
    spectral = case.solve(backend="vectorized")
    gray = SingleLevelRMCRT(
        rays_per_cell=args.rays_per_cell, seed=args.seed
    ).solve(grid, props)
    if np.array_equal(spectral.divq, gray.divq):
        print(f"gray limit: bit-identical to gray solver "
              f"(divq mean {gray.divq.mean():.6f})")
    else:
        err = float(np.max(np.abs(spectral.divq - gray.divq)))
        failures.append(f"gray-limit mismatch vs gray solver: max |diff| {err:.3e}")

    # 2. vectorized vs scalar backend on a genuinely spectral model
    mcase = SpectralCase(
        name="smoke-multiband",
        model=SpectralModel.build(
            bands=args.bands, temperature=1400.0, kappa_exponent=0.8,
            emissivity="tungsten",
        ),
        resolution=args.resolution,
        rays_per_cell=args.rays_per_cell,
        wall_temperature=0.5,
        seed=args.seed,
    )
    vec, census = _census(lambda: mcase.solve(backend="vectorized"), args.bands)
    sca = mcase.solve(backend="scalar")
    rel = float(
        np.max(np.abs(vec.divq - sca.divq)) / max(np.max(np.abs(sca.divq)), 1e-300)
    )
    if rel <= 1e-9:
        print(f"backends: vectorized matches scalar (rel max diff {rel:.3e}, "
              f"band census {census})")
    else:
        failures.append(f"vectorized vs scalar rel max diff {rel:.3e} > 1e-9")

    # 3. physical sanity: every band sampled, finite positive-emission field
    if min(census) <= 0:
        failures.append(f"band starved of rays: census {census}")
    if not np.all(np.isfinite(vec.divq)):
        failures.append("non-finite del.q in spectral solve")

    # 4. a two-level spectral solve is one trace on every path: 2 ranks
    # of the task pipeline give the serial direct solver's bytes
    bench = BurnsChristonBenchmark(resolution=2 * args.resolution)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=args.resolution)
    options = dict(rays_per_cell=2, halo=2, seed=args.seed, spectral=mcase.model)
    direct = MultiLevelRMCRT(**options).solve(
        grid, bench.properties_for_level(grid.finest_level)
    )
    ranks = DistributedRMCRT(grid, benchmark_property_init(bench), **options).solve(
        "distributed", num_ranks=2
    )
    if np.array_equal(ranks.divq, direct.divq):
        print("two levels: 2-rank distributed bit-identical to serial direct")
    else:
        err = float(np.max(np.abs(ranks.divq - direct.divq)))
        failures.append(f"2-rank distributed vs serial direct: max |diff| {err:.3e}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print("spectral smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


def _cmd_run(argv) -> int:
    from repro.radiation.spectral.scenario import SCENARIOS, get_scenario
    from repro.radiation.spectral.viewfactor import EnclosureScenario

    parser = argparse.ArgumentParser(
        prog="python -m repro spectral run",
        description="Solve a named spectral scenario.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--backend", choices=("vectorized", "scalar"),
                        default="vectorized")
    args = parser.parse_args(argv)

    case = get_scenario(args.scenario)
    if isinstance(case, EnclosureScenario):
        return _print_enclosure(case)
    result, census = _census(lambda: case.solve(backend=args.backend), case.model.nbands)
    print(f"scenario {case.name}: model {case.model.name} "
          f"({case.model.nbands} band(s))")
    print(f"rays traced: {result.rays_traced:,}  band census: {census}")
    print(f"del.q: mean {result.divq.mean():.4f}, "
          f"min {result.divq.min():.4f}, max {result.divq.max():.4f}")
    return 0


def _print_enclosure(case) -> int:
    result = case.solve()
    names = ("x-", "x+", "y-", "y+", "z-", "z+")
    print(f"enclosure {case.dims}, model {case.model.name} "
          f"({case.model.nbands} band(s)), "
          f"{case.samples_per_face:,} samples/face")
    print("view factors (constrained):")
    header = "      " + " ".join(f"{n:>8}" for n in names)
    print(header)
    for i, row in enumerate(result.view_factors):
        print(f"  {names[i]:<3} " + " ".join(f"{v:8.5f}" for v in row))
    print(f"{'face':>6} {'T [K]':>8} {'q [W/m^2]':>12} {'A*q [W]':>12}")
    for i, n in enumerate(names):
        print(f"{n:>6} {case.face_temperatures[i]:8.1f} "
              f"{result.flux[i]:12.2f} {result.face_power[i]:12.2f}")
    print(f"energy balance (sum A*q): {result.energy_balance:.3e} W")
    return 0


def _cmd_enclosure(argv) -> int:
    from repro.radiation.spectral.model import SpectralModel
    from repro.radiation.spectral.viewfactor import EnclosureScenario

    parser = argparse.ArgumentParser(
        prog="python -m repro spectral enclosure",
        description="Solve a box-enclosure view-factor problem.",
    )
    parser.add_argument("--samples", type=int, default=20000,
                        help="Monte Carlo samples per face")
    parser.add_argument("--bands", type=int, default=3)
    parser.add_argument("--emissivity", default="ceramic")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    case = EnclosureScenario(
        model=SpectralModel.build(
            bands=args.bands, temperature=1200.0, emissivity=args.emissivity,
        ),
        samples_per_face=args.samples,
        seed=args.seed,
    )
    return _print_enclosure(case)


def cmd_spectral(argv) -> int:
    argv = list(argv)
    commands = {
        "smoke": _cmd_smoke,
        "run": _cmd_run,
        "enclosure": _cmd_enclosure,
    }
    if not argv or argv[0] not in commands:
        print(
            "usage: python -m repro spectral {smoke,run,enclosure} ...",
            file=sys.stderr,
        )
        return 2
    try:
        return commands[argv[0]](argv[1:])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
