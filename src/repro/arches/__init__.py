"""ARCHES-lite: the minimal host code radiation couples into — SSP-RK
integrators, FV operators, the energy equation, and the coupled boiler
driver."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".integrators": ["advance", "get_integrator", "ssp_rk1", "ssp_rk2", "ssp_rk3"],
    ".operators": ["laplacian", "pad_field", "upwind_advection"],
    ".energy": ["EnergyEquation"],
    ".boiler": ["BoilerScenario"],
    ".coupled": ["CoupledResult", "CoupledSimulation"],
})
