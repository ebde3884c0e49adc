"""WSGG-style grey-band loop — the original spectral approximation.

This is the coarse end of the spectral subsystem: the spectrum as a
handful of grey bands with prescribed weights and kappa scales, each
solved by re-running the grey machinery. The wavelength-*sampled*
path (Planck-distribution band sampling per ray, tabulated surface
emissivity) is the ``spectral`` option of the RMCRT trace itself
(:func:`repro.core.kernels.trace_patch_multi_level`); this module remains the cheap band-loop reference and the home of the
:class:`SpectralBand` set definitions.

Section III.A: "Adding spectral frequencies to RMCRT would entail
adding a loop over wave-lengths, eta and is part of future work."
This module implements that loop with the standard engineering model
for combustion gases, a weighted-sum-of-grey-gases (WSGG) style band
set: the spectrum is partitioned into ``n`` grey bands, band *i*
carrying a fraction ``weight_i`` of the black-body emissive power and a
band absorption coefficient ``kappa_scale_i * kappa_grey``. Each band
is solved with the existing grey RMCRT machinery on a re-scaled
property bundle and the divergences sum:

    del.q = sum_i del.q_grey(kappa_i, weight_i * sigma_t4)

With one band of weight 1 and scale 1 the model degenerates exactly to
the grey solver — the invariant the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.grid.grid import Grid
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError


@dataclass(frozen=True)
class SpectralBand:
    """One grey band of a WSGG-style set."""

    weight: float        #: fraction of total black-body emission
    kappa_scale: float   #: band kappa = kappa_scale * grey kappa

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ReproError(f"band weight {self.weight} outside [0, 1]")
        if self.kappa_scale < 0:
            raise ReproError(f"band kappa scale {self.kappa_scale} negative")


GREY = [SpectralBand(weight=1.0, kappa_scale=1.0)]

#: a representative 3-band combustion-gas set: an optically thick CO2/H2O
#: band, a moderate band, and a nearly transparent window
COMBUSTION_3_BAND = [
    SpectralBand(weight=0.35, kappa_scale=4.0),
    SpectralBand(weight=0.40, kappa_scale=1.0),
    SpectralBand(weight=0.25, kappa_scale=0.05),
]


def validate_bands(bands: Sequence[SpectralBand]) -> None:
    if not bands:
        raise ReproError("need at least one spectral band")
    total = sum(b.weight for b in bands)
    if abs(total - 1.0) > 1e-9:
        raise ReproError(f"band weights must sum to 1, got {total}")


def band_properties(props: RadiativeProperties, band: SpectralBand) -> RadiativeProperties:
    """The grey-equivalent property bundle for one band.

    Interior kappa scales by the band factor; emissive power (interior
    *and* walls) scales by the band weight. The wall ring of ``abskg``
    holds emissivity, which is spectral-surface property we keep grey
    (band-independent), matching the usual WSGG wall treatment.
    """
    abskg = props.abskg.copy()
    st4 = props.sigma_t4 * band.weight
    interior_sl = props.interior.slices(origin=props.origin)
    abskg[interior_sl] = abskg[interior_sl] * band.kappa_scale
    return RadiativeProperties(
        interior=props.interior,
        abskg=abskg,
        sigma_t4=st4,
        cell_type=props.cell_type,
    )


class SpectralRMCRT:
    """Band-looped RMCRT: wraps any grey solver with a ``solve(grid,
    props)`` interface (SingleLevelRMCRT, MultiLevelRMCRT, RMCRTSolver).

    Bands are solved with decorrelated ray streams (the grey solver's
    seed is offset per band) so band errors add in quadrature rather
    than coherently.
    """

    def __init__(self, grey_solver, bands: Optional[Sequence[SpectralBand]] = None):
        self.bands = list(bands) if bands is not None else list(GREY)
        validate_bands(self.bands)
        self.grey_solver = grey_solver
        if not hasattr(grey_solver, "solve") or not hasattr(grey_solver, "seed"):
            raise ReproError("grey solver must expose .solve(grid, props) and .seed")

    def solve(self, grid: Grid, props: RadiativeProperties):
        base_seed = self.grey_solver.seed
        divq = None
        rays = 0
        result = None
        try:
            for i, band in enumerate(self.bands):
                self.grey_solver.seed = base_seed + 7919 * i
                result = self.grey_solver.solve(grid, band_properties(props, band))
                divq = result.divq if divq is None else divq + result.divq
                rays += result.rays_traced
        finally:
            self.grey_solver.seed = base_seed
        result.divq = divq
        result.rays_traced = rays
        return result
