"""Spectral RMCRT: wavelength-sampled radiation physics.

Two tiers of spectral fidelity share this package:

* the legacy WSGG-style grey-band loop (:mod:`.bands`), which re-runs
  the grey machinery per band — kept API-compatible with the original
  ``repro.radiation.spectral`` module;
* the wavelength-*sampled* subsystem: Planck band sampling
  (:mod:`.planck`), tabulated surface emissivity (:mod:`.emissivity`),
  the per-ray spectral tracers (:mod:`.tracer`), the view-factor
  enclosure solver (:mod:`.viewfactor`), and the packaged scenarios
  (:mod:`.scenario`).
"""

from repro.radiation.spectral.bands import (
    COMBUSTION_3_BAND,
    GREY,
    SpectralBand,
    SpectralRMCRT,
    band_properties,
    validate_bands,
)
from repro.radiation.spectral.emissivity import (
    MATERIALS,
    TabulatedEmissivity,
    named_emissivity,
)
from repro.radiation.spectral.model import SpectralModel, kappa_scales_power_law
from repro.radiation.spectral.planck import (
    C2_UM_K,
    PlanckTable,
    default_band_edges,
    fraction_inverse,
    planck_fraction,
)
from repro.radiation.spectral.scenario import SCENARIOS, SpectralCase, get_scenario
from repro.radiation.spectral.tracer import (
    SPECTRAL_STREAM,
    SpectralResult,
    SpectralTracer,
    band_level_fields,
)
from repro.radiation.spectral.viewfactor import (
    EnclosureResult,
    EnclosureScenario,
    enforce_constraints,
    parallel_plates_view_factor,
    radiosity_solve,
    view_factor_matrix,
)

__all__ = [
    # WSGG band loop (legacy API)
    "COMBUSTION_3_BAND",
    "GREY",
    "SpectralBand",
    "SpectralRMCRT",
    "band_properties",
    "validate_bands",
    # Planck sampling
    "C2_UM_K",
    "PlanckTable",
    "default_band_edges",
    "fraction_inverse",
    "planck_fraction",
    # emissivity
    "MATERIALS",
    "TabulatedEmissivity",
    "named_emissivity",
    # model + tracer
    "SpectralModel",
    "kappa_scales_power_law",
    "SPECTRAL_STREAM",
    "SpectralResult",
    "SpectralTracer",
    "band_level_fields",
    # scenarios + enclosure
    "SCENARIOS",
    "SpectralCase",
    "get_scenario",
    "EnclosureResult",
    "EnclosureScenario",
    "enforce_constraints",
    "parallel_plates_view_factor",
    "radiosity_solve",
    "view_factor_matrix",
]
