"""The DataWarehouse subsystem: variable labels, grid variables, the
host on-demand warehouse, and the GPU warehouse with its per-level
database (paper contribution ii)."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".label": ["VarKind", "VarLabel", "cc", "per_level", "reduction"],
    ".variables": ["CCVariable", "ReductionVariable"],
    ".datawarehouse": ["DataWarehouse", "DataWarehouseManager"],
    ".gpudw": ["GPUDataWarehouse", "PCIeStats", "DEFAULT_CAPACITY_BYTES"],
    ".archive": ["DataArchive"],
})
