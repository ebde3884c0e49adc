"""repro — reproduction of Humphrey et al., "Radiative Heat Transfer
Calculation on 16384 GPUs Using a Reverse Monte Carlo Ray Tracing
Approach with Adaptive Mesh Refinement" (IPDPS 2016).

The package implements the paper's multi-level RMCRT radiation solver
together with every substrate it runs on: a structured-AMR grid, a
Uintah-style DataWarehouse and task runtime (host + GPU), simulated
MPI, the wait-free request pool and custom allocators of Section IV,
an ARCHES-lite CFD host code, and a discrete-event Titan cluster
simulator used to regenerate the paper's scaling studies.

Quickstart::

    from repro import RMCRTSolver
    result = RMCRTSolver(rays_per_cell=25).solve_benchmark(resolution=41)
    print(result.divq.mean())

Every package imports lazily: ``import repro`` loads this module alone,
and a public name loads its defining module on first use (PEP 562,
through :func:`lazy_exports`), so a process pays only for what it runs.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package, table):
    """The PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` of a lazy
    package.

    ``table`` maps a module (relative to ``package`` when it starts with
    ".") to the public names it defines; ``"name as alias"`` exports
    ``name`` as ``alias``. A name is imported on first access and then
    cached in the package's globals, so later lookups are plain ones.
    It lives here, not in a submodule, because every package of the
    tree already has this module loaded as its root.
    """
    where = {}
    for module, names in table.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            where[alias or name] = (module, name)
    namespace = sys.modules[package].__dict__

    def __getattr__(attr):
        if attr not in where:
            raise AttributeError(f"module {package!r} has no attribute {attr!r}")
        module, name = where[attr]
        value = namespace[attr] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ["Box", "CellType", "Grid", "Level", "LoadBalancer", "Patch",
              "build_single_level_grid", "build_two_level_grid", "decompose_level"],
    ".radiation": ["BurnsChristonBenchmark", "DiscreteOrdinates", "RadiativeProperties",
                   "product_quadrature", "sn_level_symmetric"],
    ".core": ["DistributedRMCRT", "LevelFields", "MultiLevelRMCRT", "RMCRTResult",
              "RMCRTSolver", "SingleLevelRMCRT", "TraceOptions", "VirtualRadiometer",
              "benchmark_property_init"],
    ".runtime": ["Computes", "DistributedScheduler", "GPUScheduler", "MultiGPUScheduler",
                 "Requires", "SerialScheduler", "SimMPI", "SimulationController", "Task",
                 "TaskGraph", "ThreadedScheduler"],
    ".dw": ["CCVariable", "DataArchive", "DataWarehouse", "GPUDataWarehouse", "VarLabel"],
    ".comm": ["LockedVectorCommPool", "WaitFreeCommPool"],
    ".memory": ["ArenaAllocator", "SimulatedHeap", "SizeClassPool"],
    ".machine": ["GPUModel", "NetworkModel", "TitanSpec", "TITAN"],
    ".dessim": ["ClusterSimulator", "LARGE", "MEDIUM", "RMCRTProblem", "SimOptions",
                "StrongScalingStudy"],
    ".arches": ["BoilerScenario", "CoupledSimulation", "EnergyEquation"],
    ".service": ["RadiationService", "ServiceClient", "ServiceConfig", "SolveRequest",
                 "SolveResult"],
    ".ups": ["parse_ups", "run_ups", "scene_fingerprint", "spec_fingerprint"],
})
__all__.insert(0, "__version__")
