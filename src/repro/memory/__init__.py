"""Memory-management substrate (paper Section IV.B): heap models,
the mmap arena, the lock-free small-object pool, and the fragmentation
workload replay."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".heap": ["SimulatedHeap", "SizeClassHeap"],
    ".arena": ["ArenaAllocator", "PAGE_SIZE"],
    ".pool": ["GlobalLockAllocator", "SizeClassPool"],
    ".workload": ["AllocatorStack", "CATEGORIES", "ReplayResult", "TraceEvent",
                  "generate_trace", "replay_trace"],
})
