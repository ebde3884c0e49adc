"""Shared utilities: seeded RNG streams, atomic writes, error types.

These are deliberately dependency-light; every other subpackage may
import from here, but :mod:`repro.util` imports nothing from the rest
of the library.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".rng": ["RandomStreams", "spawn_stream"],
    ".atomic": ["FS_EFFECTS", "atomic_save_array", "atomic_savez",
                "atomic_write_bytes", "atomic_write_text", "register_fs_effect"],
    ".errors": ["ReproError", "GridError", "SchedulerError", "DataWarehouseError",
                "AllocationError", "CommError", "PerfError", "ResilienceError",
                "InjectedFault"],
})
