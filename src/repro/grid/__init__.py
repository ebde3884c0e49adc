"""Structured AMR grid substrate.

Boxes, patches, levels, grid hierarchies, regular decomposition,
inter-level transfer operators, space-filling curves and the SFC load
balancer — the geometric machinery beneath the RMCRT solvers and the
task runtime.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".box": ["Box", "ivec"],
    ".patch": ["Patch"],
    ".level": ["Level"],
    ".grid": ["Grid", "build_two_level_grid", "build_single_level_grid"],
    ".decomposition": ["decompose_level", "tile_box", "patch_count"],
    ".celltype": ["CellType", "domain_cell_types", "mark_intrusion"],
    ".refinement": ["coarsen_average", "coarsen_max", "refine_inject"],
    ".sfc": ["morton_encode", "morton_decode", "hilbert_encode", "hilbert_decode",
             "curve_order"],
    ".loadbalance": ["LoadBalancer", "compact_ranks", "reassign_on_failure",
                     "round_robin_assign"],
})
