#!/usr/bin/env python
"""Non-grey radiation: the paper's future-work wavelength loop.

Solves the Burns & Christon benchmark with a 3-band
weighted-sum-of-grey-gases spectrum (thick CO2/H2O band, moderate band,
transparent window) and compares the band-resolved divergence of the
heat flux against the grey approximation the paper's production runs
used ("currently we are using a mean absorption coefficient
approximation ... adding spectral frequencies would entail adding a
loop over wave-lengths").

The band set is a spectral model of the one trace: band edges at the
Planck inverses of the cumulative weights, so each band carries its
weight of the black-body power, and each ray draws one band.

Run:  python examples/spectral_bands.py
"""

import numpy as np

from repro import BurnsChristonBenchmark, SingleLevelRMCRT
from repro.radiation.spectral import (
    PlanckTable, SpectralModel, TabulatedEmissivity, fraction_inverse,
)

#: (weight, kappa scale) per band
WSGG_3_BAND = ((0.35, 4.0), (0.40, 1.0), (0.25, 0.05))
T_REF = 1000.0  # K; any reference temperature gives the same weights


def main() -> None:
    bench = BurnsChristonBenchmark(resolution=17)
    grid = bench.single_level_grid()
    props = bench.properties_for_level(grid.finest_level)
    rays = 64

    weights, scales = zip(*WSGG_3_BAND)
    inner = fraction_inverse(np.cumsum(weights)[:-1], T_REF)
    table = PlanckTable.from_edges([0.0, *inner, np.inf], T_REF)
    model = SpectralModel(table, scales, TabulatedEmissivity.gray(len(weights)))

    grey = SingleLevelRMCRT(rays_per_cell=rays, seed=9).solve(grid, props)
    # one band a ray: the rays a band loop would spend on all three
    spectral = SingleLevelRMCRT(
        rays_per_cell=rays * model.nbands, seed=9, spectral=model
    ).solve(grid, props)

    print("3-band WSGG spectrum:")
    peak = props.interior_view("abskg").max()
    for i, (weight, scale) in enumerate(zip(table.weights, model.kappa_scales)):
        print(f"  band {i}: weight {weight:.2f}, "
              f"kappa x{scale:<4} "
              f"(peak kappa {scale * peak:.2f})")

    x, grey_line = bench.centerline(grey.divq)
    _, spec_line = bench.centerline(spectral.divq)
    print(f"\n{'x':>8} {'grey divQ':>11} {'3-band divQ':>12} {'ratio':>7}")
    for xi, g, s in zip(x[::2], grey_line[::2], spec_line[::2]):
        print(f"{xi:8.3f} {g:11.4f} {s:12.4f} {s / g:7.3f}")

    print(f"\ndomain totals: grey {grey.divq.sum():.1f}, "
          f"3-band {spectral.divq.sum():.1f} "
          f"({spectral.divq.sum() / grey.divq.sum():.2f}x)")
    print("the thick band self-absorbs near the centre while the window")
    print("band radiates straight to the cold walls — the non-grey")
    print("redistribution a grey coefficient cannot capture.")


if __name__ == "__main__":
    main()
