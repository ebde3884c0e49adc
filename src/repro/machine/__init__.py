"""Calibrated models of the evaluation platform: Titan XK7 node specs,
the Gemini network, and the K20X GPU."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".titan": ["TITAN", "TitanSpec"],
    ".network": ["GEMINI", "NetworkModel"],
    ".gpu": ["K20X", "GPUModel"],
    ".cpu": ["OPTERON_6274", "CPUNodeModel"],
    ".summit": ["SUMMIT", "SUMMIT_NETWORK", "V100", "summit_simulator"],
})
