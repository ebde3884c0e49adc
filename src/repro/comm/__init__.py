"""MPI-request management data structures (paper Section IV.A):
the legacy mutex-protected vector (with its historical race available
for demonstration) and the wait-free slot pool that replaced it."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".request": ["BufferLedger", "CommNode"],
    ".stats": ["PoolStats"],
    ".pool_locked": ["LockedVectorCommPool"],
    ".pool_waitfree": ["ProtectedIterator", "WaitFreeCommPool"],
    ".driver": ["POOL_KINDS", "WorkloadResult", "drain_before_snapshot",
                "make_pool", "run_comm_workload"],
})
