"""Multi-threaded workload driver for the request pools.

Reproduces the paper's operating conditions in miniature: many threads
of one node concurrently processing the node's outstanding MPI
receives (MPI_THREAD_MULTIPLE style). Used by the correctness tests
(no leaks, no double-processing under real concurrency) and by the
E1b contention benchmark that calibrates the Table I model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Union

from repro.comm.pool_locked import LockedVectorCommPool
from repro.comm.pool_waitfree import WaitFreeCommPool
from repro.comm.request import BufferLedger, CommNode
from repro.perf import tracectx
from repro.runtime.mpi import SimMPI
from repro.util.errors import CommError

Pool = Union[LockedVectorCommPool, WaitFreeCommPool]

#: every kind :func:`make_pool` builds
POOL_KINDS = ("waitfree", "locked", "legacy-racy")


@dataclass
class WorkloadResult:
    wall_time: float
    processed: int
    expected: int
    leaked_buffers: int
    leaked_bytes: int
    races_observed: int
    num_threads: int

    @property
    def throughput(self) -> float:
        """Messages processed per second across all threads."""
        return self.processed / self.wall_time if self.wall_time > 0 else float("inf")

    @property
    def clean(self) -> bool:
        """All messages processed exactly once, every buffer freed."""
        return (
            self.processed == self.expected
            and self.leaked_buffers == 0
            and self.races_observed == 0
        )


def make_pool(
    kind: str,
    ledger: BufferLedger = None,
    unpack_delay: float = 1e-5,
    capacity: int = 256,
) -> Pool:
    """'waitfree', 'locked' (safe), or 'legacy-racy'.

    ``unpack_delay`` (legacy-racy only) is the modelled buffer-unpack
    window; see :class:`LockedVectorCommPool`. ``capacity`` (waitfree
    only) sizes the slot array a priori, as Uintah does; the locked
    vector grows as it goes and has no slots to size.
    """
    if kind not in POOL_KINDS:
        raise CommError(f"unknown pool kind {kind!r}")
    ledger = ledger if ledger is not None else BufferLedger()
    if kind == "waitfree":
        return WaitFreeCommPool(capacity=capacity, ledger=ledger)
    if kind == "locked":
        return LockedVectorCommPool(mode="safe", ledger=ledger)
    return LockedVectorCommPool(mode="racy", ledger=ledger, unpack_delay=unpack_delay)


def drain_before_snapshot(
    fabric: SimMPI,
    timeout_s: float = 5.0,
    poll_s: float = 0.001,
) -> float:
    """Wait until ``fabric`` is quiescent; returns the wait in seconds.

    Checkpoints must capture a *consistent* cut: no message may be
    in flight — staged in the fabric, unmatched at a rank, or sitting
    in a posted receive — when state is snapshotted, or the restored
    run would silently drop it. Callers take the snapshot (or declare
    the barrier reached) only after this returns; a fabric that never
    drains within ``timeout_s`` raises :class:`CommError` rather than
    blocking a checkpoint cadence forever.
    """
    if timeout_s <= 0:
        raise CommError(f"timeout_s must be positive, got {timeout_s}")
    start = time.perf_counter()
    while not fabric.quiescent():
        if time.perf_counter() - start > timeout_s:
            raise CommError(
                f"comm fabric still has in-flight traffic after {timeout_s}s; "
                f"cannot take a consistent snapshot"
            )
        time.sleep(poll_s)
    return time.perf_counter() - start


def run_comm_workload(
    pool: Pool,
    num_threads: int = 4,
    num_messages: int = 256,
    payload_bytes: int = 1024,
    overlapped_sends: bool = True,
) -> WorkloadResult:
    """Drive ``num_messages`` through ``pool`` with ``num_threads``
    concurrent processors.

    All receives are posted (and their records inserted) up front; a
    dedicated sender thread then feeds matching messages while the
    worker threads hammer ``process_ready`` — completions arrive *while*
    threads scan, which is what exposes the legacy race. With
    ``overlapped_sends=False`` all messages complete before processing
    starts (pure contention measurement, no in-flight racing window).
    """
    if num_threads < 1 or num_messages < 1:
        raise CommError("need >= 1 thread and >= 1 message")
    fabric = SimMPI(2)
    recv_comm = fabric.comm(0)
    send_comm = fabric.comm(1)
    payload = bytes(payload_bytes)

    for i in range(num_messages):
        req = recv_comm.irecv(source=1, tag=i)
        pool.insert(CommNode(req, nbytes=payload_bytes))

    def sender() -> None:
        # one causal trace for the whole workload, a child hop per
        # message — lets the pools' ctx_propagated counter verify that
        # every retired request still carried its sender's context
        root = tracectx.new_trace()
        for i in range(num_messages):
            with tracectx.use(root.child()):
                send_comm.isend(payload, dest=0, tag=i)

    def worker() -> None:
        while pool.processed < num_messages:
            if pool.process_ready() == 0:
                time.sleep(0)  # yield; nothing claimable right now

    send_thread = threading.Thread(target=sender, name="sender")
    workers = [
        threading.Thread(target=worker, name=f"worker-{t}") for t in range(num_threads)
    ]

    start = time.perf_counter()
    if overlapped_sends:
        for w in workers:
            w.start()
        send_thread.start()
    else:
        send_thread.start()
        send_thread.join()
        for w in workers:
            w.start()
    if overlapped_sends:
        send_thread.join()
    for w in workers:
        w.join()
    wall = time.perf_counter() - start

    races = getattr(pool, "races_observed", 0)
    return WorkloadResult(
        wall_time=wall,
        processed=pool.processed,
        expected=num_messages,
        leaked_buffers=pool.ledger.outstanding,
        leaked_bytes=pool.ledger.outstanding_bytes,
        races_observed=races,
        num_threads=num_threads,
    )
