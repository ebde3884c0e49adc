"""ARCHES-lite: the minimal LES-style host code radiation couples into
— SSP-RK integrators, FV operators, pressure projection (Hypre
stand-in), Smagorinsky closure, the energy equation, and the coupled
boiler driver."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".integrators": ["advance", "get_integrator", "ssp_rk1", "ssp_rk2", "ssp_rk3"],
    ".operators": ["divergence", "gradient", "laplacian", "pad_field",
                   "strain_rate_magnitude", "upwind_advection"],
    ".projection": ["PressureProjection"],
    ".turbulence": ["SmagorinskyModel"],
    ".energy": ["EnergyEquation"],
    ".momentum": ["MomentumSolver", "taylor_green"],
    ".boiler": ["BoilerScenario"],
    ".coupled": ["CoupledResult", "CoupledSimulation"],
})
