"""Spectral RMCRT: wavelength-sampled radiation physics.

Two tiers of spectral fidelity share this package:

* the legacy WSGG-style grey-band loop (:mod:`.bands`), which re-runs
  the grey machinery per band — kept API-compatible with the original
  ``repro.radiation.spectral`` module;
* the wavelength-*sampled* subsystem: Planck band sampling
  (:mod:`.planck`), tabulated surface emissivity (:mod:`.emissivity`),
  the model the RMCRT trace samples bands from (:mod:`.model`; every
  solver takes it as its ``spectral`` option), the view-factor
  enclosure solver (:mod:`.viewfactor`), and the packaged scenarios
  (:mod:`.scenario`).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bands": ["COMBUSTION_3_BAND", "GREY", "SpectralBand", "SpectralRMCRT",
               "band_properties", "validate_bands"],
    ".emissivity": ["MATERIALS", "TabulatedEmissivity", "named_emissivity"],
    ".model": ["SpectralModel", "kappa_scales_power_law"],
    ".planck": ["C2_UM_K", "PlanckTable", "default_band_edges", "fraction_inverse",
                "planck_fraction"],
    ".scenario": ["SCENARIOS", "SpectralCase", "get_scenario"],
    ".viewfactor": ["EnclosureResult", "EnclosureScenario", "enforce_constraints",
                    "parallel_plates_view_factor", "radiosity_solve",
                    "view_factor_matrix"],
})
