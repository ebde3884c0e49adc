"""Radiation physics: property fields, the Burns & Christon benchmark,
angular quadrature, and the discrete-ordinates baseline solver."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".constants": ["SIGMA_SB", "T_UNIT_EMISSION"],
    ".properties": ["RadiativeProperties"],
    ".benchmark": ["BurnsChristonBenchmark", "burns_christon_abskg", "MEDIUM_PROBLEM",
                   "LARGE_PROBLEM"],
    ".quadrature": ["Quadrature", "sn_level_symmetric", "product_quadrature"],
    ".dom": ["DiscreteOrdinates", "dom_reference_divq"],
    ".analysis": ["ConvergenceStudy", "monte_carlo_convergence", "rms_error"],
    ".spectral": ["EnclosureScenario", "PlanckTable", "SpectralModel",
                  "TabulatedEmissivity"],
})
