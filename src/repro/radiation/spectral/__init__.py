"""Spectral RMCRT: wavelength-sampled radiation physics.

One estimator: the RMCRT trace draws a band a ray from a
:class:`~.model.SpectralModel` (every solver takes it as its
``spectral`` option). The package holds Planck band sampling
(:mod:`.planck`), tabulated surface emissivity (:mod:`.emissivity`),
the model (:mod:`.model`), the view-factor enclosure solver
(:mod:`.viewfactor`) and the packaged scenarios (:mod:`.scenario`).

A weighted-sum-of-grey-gases band set — band ``b`` carrying a weight
``w_b`` of the black-body power and a kappa scale ``s_b`` — is such a
model: its edges sit at the cumulative weights' Planck inverses at a
reference temperature (``examples/spectral_bands.py`` builds one).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".emissivity": ["MATERIALS", "TabulatedEmissivity", "named_emissivity"],
    ".model": ["SpectralModel", "kappa_scales_power_law"],
    ".planck": ["C2_UM_K", "PlanckTable", "default_band_edges", "fraction_inverse",
                "planck_fraction"],
    ".scenario": ["SCENARIOS", "SpectralCase", "get_scenario"],
    ".viewfactor": ["EnclosureResult", "EnclosureScenario", "enforce_constraints",
                    "parallel_plates_view_factor", "radiosity_solve",
                    "view_factor_matrix"],
})
