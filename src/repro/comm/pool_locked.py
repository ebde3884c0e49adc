"""The legacy request container: a mutex-protected vector scanned with
MPI_Testsome (paper Section IV.A).

Two operating modes reproduce the paper's before-story:

* ``safe`` (default): every scan holds the vector's lock end-to-end.
  Correct, but the lock serializes all threads — the contention the
  wait-free pool removes, measured in E1b.
* ``racy``: the historical bug. The completion scan runs under a
  *read* view (no exclusion), so multiple threads can observe the same
  request complete, each allocates a receive buffer, and only the
  first to claim the record processes it and frees — every loser's
  buffer leaks, exactly the failure mode that killed large RMCRT runs
  with out-of-memory errors. The ledger counts the leaked buffers.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.comm.request import BufferLedger, CommNode
from repro.comm.stats import PoolStats, PoolStatsMixin
from repro.util.errors import CommError


class LockedVectorCommPool(PoolStatsMixin):
    """Vector of :class:`CommNode` + one Pthread-style lock.

    ``unpack_delay`` models the work a real receive path does between
    observing completion and claiming the record: allocating the
    receive buffer and unpacking the message into it. In native Uintah
    that window is real CPU time; under the Python GIL it must be made
    explicit or the race it opens (racy mode) is un-observably narrow.
    """

    def __init__(
        self,
        mode: str = "safe",
        ledger: Optional[BufferLedger] = None,
        unpack_delay: float = 0.0,
    ) -> None:
        if mode not in ("safe", "racy"):
            raise CommError(f"mode must be 'safe' or 'racy', got {mode!r}")
        self.mode = mode
        self.unpack_delay = float(unpack_delay)
        self.ledger = ledger if ledger is not None else BufferLedger()
        self._nodes: List[CommNode] = []
        self._lock = threading.Lock()
        self.processed = 0
        self.races_observed = 0
        self.stats = PoolStats()
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def insert(self, node: CommNode) -> None:
        with self._lock:
            self._nodes.append(node)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def process_ready(self) -> int:
        """One Testsome-style pass: find completed requests, allocate
        their buffers, run callbacks, erase. Returns how many THIS call
        processed."""
        if self.mode == "safe":
            return self._process_safe()
        return self._process_racy()

    def _process_safe(self) -> int:
        done = 0
        scanned = 0
        traced = 0
        with self._lock:
            remaining: List[CommNode] = []
            for node in self._nodes:
                scanned += 1
                if node.test():
                    # allocate the receive buffer, process, release
                    self.ledger.allocate(node.nbytes)
                    if node.finish_communication(self.ledger):
                        done += 1
                        if node.ctx is not None:
                            traced += 1
                    remaining.append(None)  # erased
                else:
                    remaining.append(node)
            self._nodes = [n for n in remaining if n is not None]
        with self._stats_lock:
            self.processed += done
            self.stats.retired += done
            self.stats.ctx_propagated += traced
            self.stats.slot_scans += scanned
            self.stats.passes += 1
        return done

    def _process_racy(self) -> int:
        # the bug: the completion scan takes a *snapshot* without
        # exclusion, so concurrent callers race on the same records
        snapshot = list(self._nodes)  # unsynchronized read view
        done = 0
        with self._stats_lock:
            self.stats.slot_scans += len(snapshot)
            self.stats.passes += 1
        for node in snapshot:
            if node.test():
                # every racing thread allocates a buffer for the message
                # and unpacks into it...
                self.ledger.allocate(node.nbytes)
                if self.unpack_delay > 0:
                    time.sleep(self.unpack_delay)
                else:
                    time.sleep(0)  # yield: the unpack window
                if node.finish_communication(self.ledger):
                    done += 1
                    if node.ctx is not None:
                        with self._stats_lock:
                            self.stats.ctx_propagated += 1
                    with self._lock:
                        try:
                            self._nodes.remove(node)
                        except ValueError:
                            pass
                else:
                    # ...but only the winner frees it: this thread's
                    # allocation is leaked (ledger.outstanding grows)
                    with self._stats_lock:
                        self.races_observed += 1
                        self.stats.claim_failures += 1
        with self._stats_lock:
            self.processed += done
            self.stats.retired += done
        return done
