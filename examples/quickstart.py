#!/usr/bin/env python
"""Quickstart: solve the Burns & Christon benchmark with RMCRT.

Computes the divergence of the radiative heat flux on a 17^3 unit cube
of hot participating medium with cold black walls — the paper's
verification problem — and prints the centreline profile, comparing
against a discrete-ordinates reference.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BurnsChristonBenchmark, DiscreteOrdinates, RMCRTSolver
from repro.radiation import dom_reference_divq


def main() -> None:
    resolution = 17
    rays = 64
    bench = BurnsChristonBenchmark(resolution=resolution)

    solver = RMCRTSolver(rays_per_cell=rays, seed=42)
    result = solver.solve_benchmark(benchmark=bench)
    print(f"RMCRT: {result.rays_traced:,} rays traced in "
          f"{result.solve_time_s:.2f} s")

    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    reference = dom_reference_divq(props, grid.finest_level.dx,
                                   n_polar=6, n_azimuthal=12)

    x, rmcrt_line = bench.centerline(result.divq)
    _, dom_line = bench.centerline(reference)

    print(f"\n{'x':>8} {'RMCRT divQ':>12} {'DOM divQ':>12} {'diff %':>8}")
    for xi, a, b in zip(x, rmcrt_line, dom_line):
        print(f"{xi:8.3f} {a:12.4f} {b:12.4f} {100 * (a - b) / b:8.2f}")

    rms = np.sqrt(np.mean((result.divq - reference) ** 2))
    print(f"\nRMS difference vs S_N reference: {rms:.4f} "
          f"(Monte Carlo noise at {rays} rays/cell)")


if __name__ == "__main__":
    main()
