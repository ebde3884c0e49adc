"""The wait-free MPI-request pool — contribution (iii) and Algorithm 1.

The redesign that replaced the locked vector: a pool of fixed slots,
each guarded by its own atomic flag. A thread claims a slot with a
single try-lock (the Python analogue of a C++11 atomic
test-and-set); a claimed slot hands back a **unique protected
iterator** — a move-only handle that is the *only* way to touch the
referenced record, so no two threads can ever dereference the same
node. Requests are then tested individually (``MPI_Test``) instead of
collectively (``MPI_Testsome``), which is what makes per-slot exclusion
sufficient.

Progress properties (Herlihy & Shavit's taxonomy, paper ref [10]):
no operation ever blocks waiting for another thread — a try-lock that
fails simply moves to the next slot — so every thread completes every
pass in a bounded number of steps regardless of what other threads do.
Capacity growth appends a new chunk under a short lock; Uintah sizes
the pool a priori so growth is off the steady-state path, and so do we.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.comm.request import BufferLedger, CommNode
from repro.comm.stats import PoolStats, PoolStatsMixin
from repro.util.errors import CommError


class _Slot:
    __slots__ = ("flag", "occupied", "value")

    def __init__(self) -> None:
        self.flag = threading.Lock()  # try-acquire == atomic TAS
        self.occupied = False
        self.value: Optional[CommNode] = None


class ProtectedIterator:
    """Unique handle to one claimed slot.

    Move-only semantics, enforced at runtime: the handle is unusable
    after :meth:`erase` or :meth:`release`, and it cannot be copied
    into validity — holding it *is* holding the slot's flag.
    """

    def __init__(self, slot: _Slot) -> None:
        self._slot: Optional[_Slot] = slot

    @property
    def valid(self) -> bool:
        return self._slot is not None

    @property
    def value(self) -> CommNode:
        if self._slot is None:
            raise CommError("use of released/erased iterator")
        return self._slot.value  # type: ignore[return-value]

    def erase(self) -> None:
        """Remove the record from the pool and release the slot."""
        if self._slot is None:
            raise CommError("double erase/release of iterator")
        self._slot.value = None
        self._slot.occupied = False
        self._slot.flag.release()
        self._slot = None

    def release(self) -> None:
        """Release the slot leaving the record in the pool."""
        if self._slot is None:
            raise CommError("double erase/release of iterator")
        self._slot.flag.release()
        self._slot = None

    def __enter__(self) -> "ProtectedIterator":
        return self

    def __exit__(self, *exc) -> None:
        if self._slot is not None:
            self.release()

    def __bool__(self) -> bool:
        return self.valid


class WaitFreeCommPool(PoolStatsMixin):
    """Slot pool with per-slot atomic claim flags (Algorithm 1)."""

    def __init__(
        self,
        capacity: int = 256,
        ledger: Optional[BufferLedger] = None,
        growth_chunk: int = 256,
    ) -> None:
        if capacity < 1:
            raise CommError("capacity must be >= 1")
        self.ledger = ledger if ledger is not None else BufferLedger()
        self._slots: List[_Slot] = [_Slot() for _ in range(capacity)]
        self._growth_chunk = int(growth_chunk)
        self._growth_lock = threading.Lock()
        self.processed = 0
        self.stats = PoolStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Occupied-slot count (racy snapshot, diagnostics only)."""
        return sum(1 for s in self._slots if s.occupied)

    @property
    def capacity(self) -> int:
        return len(self._slots)

    def _grow(self) -> None:
        with self._growth_lock:
            self._slots = self._slots + [_Slot() for _ in range(self._growth_chunk)]
        with self._stats_lock:
            self.stats.grows += 1

    # ------------------------------------------------------------------
    # pool operations
    # ------------------------------------------------------------------
    def insert(self, node: CommNode) -> None:
        """Claim any empty slot and store the record."""
        claim_failures = 0
        try:
            while True:
                for slot in self._slots:
                    if slot.occupied:
                        continue
                    if slot.flag.acquire(blocking=False):
                        if not slot.occupied:
                            slot.value = node
                            slot.occupied = True
                            slot.flag.release()
                            return
                        slot.flag.release()
                    else:
                        claim_failures += 1
                self._grow()
        finally:
            if claim_failures:
                with self._stats_lock:
                    self.stats.claim_failures += claim_failures

    def find_any(
        self, predicate: Callable[[CommNode], bool]
    ) -> Optional[ProtectedIterator]:
        """Claim the first unclaimed, occupied slot whose record
        satisfies ``predicate``; None if no such slot right now.

        The predicate runs *while holding the slot's flag* (so testing
        the request is race-free), exactly Algorithm 1's
        ``ready_request`` lambda.
        """
        scans = 0
        claim_failures = 0
        try:
            for slot in self._slots:
                if not slot.occupied:
                    continue
                scans += 1
                if slot.flag.acquire(blocking=False):
                    if slot.occupied and predicate(slot.value):
                        return ProtectedIterator(slot)
                    slot.flag.release()
                else:
                    claim_failures += 1
            return None
        finally:
            with self._stats_lock:
                self.stats.slot_scans += scans
                self.stats.claim_failures += claim_failures

    # ------------------------------------------------------------------
    # Algorithm 1, lines 1-9
    # ------------------------------------------------------------------
    def process_ready(self) -> int:
        """Find-and-finish completed requests until none are claimable.

        Each iteration is the paper's Algorithm 1: find_any(ready) ->
        finishCommunication -> erase. Returns how many THIS call
        processed."""
        done = 0
        traced = 0
        while True:
            it = self.find_any(CommNode.test)
            if it is None:
                break
            node = it.value
            self.ledger.allocate(node.nbytes)
            if not node.finish_communication(self.ledger):
                raise CommError(
                    "wait-free pool double-processed a record — unique "
                    "iterator invariant violated"
                )
            if node.ctx is not None:
                traced += 1
            it.erase()
            done += 1
        with self._stats_lock:
            self.processed += done
            self.stats.retired += done
            self.stats.ctx_propagated += traced
            self.stats.passes += 1
        return done
