"""The paper's primary contribution: single- and multi-level RMCRT
solvers and their batched ray-marching kernels."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fields": ["LevelFields"],
    ".rays": ["isotropic_directions", "region_cells",
              "generate_patch_rays", "cosine_hemisphere_directions", "WALLS"],
    ".dda": ["RayBatch", "RayStatus", "march"],
    ".cpu_kernel": ["march_single_ray", "trace_rays_scalar"],
    ".kernels": ["TraceOptions", "trace_patch_single_level", "trace_patch_multi_level",
                 "divq_from_sums", "patch_roi"],
    ".single_level": ["SingleLevelRMCRT", "RMCRTResult"],
    ".multi_level": ["MultiLevelRMCRT", "project_to_coarser_levels"],
    ".boundary_flux": ["VirtualRadiometer"],
    ".solver": ["RMCRTSolver"],
    ".distributed": ["DistributedRMCRT", "benchmark_property_init", "ABSKG",
                     "SIGMA_T4", "CELL_TYPE", "DIVQ", "WALL_FLUX"],
})
