"""In-process simulated MPI.

Every piece of Uintah infrastructure this reproduction exercises —
the DataWarehouse's automatic message generation, the schedulers, and
above all the MPI-request pools of Section IV — programs against the
non-blocking point-to-point subset of MPI (``isend``/``irecv``/
``test``/``wait`` with tag matching and wildcards). This module
provides that subset as an in-process fabric: one :class:`SimMPI`
object is the "machine", and each rank holds a :class:`Communicator`
endpoint.

The fabric is fully thread-safe (per-destination locking), because the
paper's request-pool experiments require *real* concurrent threads
posting and testing requests — simulating MPI_THREAD_MULTIPLE.
Message matching is FIFO per (source, tag) pair, mirroring MPI's
non-overtaking guarantee.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.perf import tracectx
from repro.util.errors import CommError

ANY_SOURCE = -1
ANY_TAG = -1


def _payload_nbytes(data: Any) -> int:
    if isinstance(data, (list, tuple)):
        return sum(map(_payload_nbytes, data))  # a packed message
    nbytes = getattr(data, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    return 64  # generic Python object envelope


@dataclass
class Message:
    source: int
    dest: int
    tag: int
    data: Any
    nbytes: int
    #: causal trace context stamped by the sender (perf.tracectx);
    #: rides the fabric so the receive side can attribute the message
    ctx: Optional[object] = None


class Request:
    """Base non-blocking request: a flag to poll, a lock held until done to block on."""

    def __init__(self) -> None:
        self._done = False
        self._latch = threading.Lock()
        self._latch.acquire()
        self.data: Any = None

    def test(self) -> bool:
        """True once the operation has completed.

        Like ``MPI_Test``, calling this concurrently from several
        threads on the *same* request is the caller's bug — the request
        pools of :mod:`repro.comm` exist to prevent exactly that.
        """
        return self._done

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._done:
            if not self._latch.acquire(timeout=-1 if timeout is None else timeout):
                raise CommError("request wait timed out")
            self._latch.release()  # so every later waiter passes
        return self.data

    def _finish(self, data: Any = None) -> None:
        self.data = data
        self._done = True
        self._latch.release()


class SendRequest(Request):
    """Eager-buffered send: complete once the fabric owns the payload."""


class RecvRequest(Request):
    def __init__(self, source: int, tag: int) -> None:
        super().__init__()
        self.source = source
        self.tag = tag
        self.matched_source: Optional[int] = None
        self.matched_tag: Optional[int] = None
        self.nbytes: int = 0
        #: the sender's trace context, populated at delivery
        self.ctx: Optional[object] = None

    def _matches(self, msg: Message) -> bool:
        return (self.source in (ANY_SOURCE, msg.source)) and (
            self.tag in (ANY_TAG, msg.tag)
        )

    def _deliver(self, msg: Message) -> None:
        self.matched_source = msg.source
        self.matched_tag = msg.tag
        self.nbytes = msg.nbytes
        self.ctx = msg.ctx
        self._finish(msg.data)


@dataclass
class FabricStats:
    messages: int = 0
    bytes: int = 0
    per_rank_sent: Dict[int, int] = field(default_factory=dict)
    per_rank_bytes: Dict[int, int] = field(default_factory=dict)

    def per_rank(self) -> Dict[int, Dict[str, int]]:
        """``{rank: {stat: value}}`` over every rank that sent."""
        ranks = set(self.per_rank_sent) | set(self.per_rank_bytes)
        return {
            r: {
                "messages_sent": self.per_rank_sent.get(r, 0),
                "bytes_sent": self.per_rank_bytes.get(r, 0),
            }
            for r in sorted(ranks)
        }

    def publish_metrics(self, registry, **labels) -> None:
        registry.gauge("mpi.messages", **labels).set(self.messages)
        registry.gauge("mpi.bytes", **labels).set(self.bytes)
        for rank, stats in self.per_rank().items():
            registry.gauge("mpi.rank.messages_sent", rank=rank, **labels).set(
                stats["messages_sent"]
            )
            registry.gauge("mpi.rank.bytes_sent", rank=rank, **labels).set(
                stats["bytes_sent"]
            )


class SimMPI:
    """The shared fabric: unmatched-message and posted-receive queues
    per destination rank, guarded by per-rank locks.

    ``delivery_jitter`` > 0 enables failure-injection mode: sends are
    staged and a progress thread delivers them after random delays in a
    randomized *cross-channel* order (per-(source, dest, tag) FIFO is
    preserved, as MPI's non-overtaking rule requires). Used to shake
    arrival-order assumptions out of the schedulers.
    """

    def __init__(
        self,
        num_ranks: int,
        delivery_jitter: float = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        if num_ranks < 1:
            raise CommError(f"num_ranks must be >= 1, got {num_ranks}")
        if delivery_jitter < 0:
            raise CommError("delivery_jitter must be >= 0")
        self.num_ranks = int(num_ranks)
        self._unexpected: List[List[Message]] = [[] for _ in range(num_ranks)]
        self._posted: List[List[RecvRequest]] = [[] for _ in range(num_ranks)]
        self._locks = [threading.Lock() for _ in range(num_ranks)]
        #: per rank, receives completed so far (counted once done)
        self.arrivals = [0] * num_ranks
        self.stats = FabricStats()

        self.delivery_jitter = float(delivery_jitter)
        self._staged: Dict[Tuple[int, int, int], deque] = {}
        self._staged_count = 0
        self._stage_lock = threading.Lock()
        self._stage_rng = random.Random(jitter_seed)
        self._stop = threading.Event()
        self._progress_thread: Optional[threading.Thread] = None
        if self.delivery_jitter > 0:
            self._progress_thread = threading.Thread(
                target=self._progress_loop, name="mpi-progress", daemon=True
            )
            self._progress_thread.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the progress thread after draining staged messages."""
        if self._progress_thread is None:
            return
        deadline = time.monotonic() + timeout
        while self._staged_count and time.monotonic() < deadline:
            time.sleep(1e-4)
        self._stop.set()
        self._progress_thread.join(timeout=timeout)
        self._progress_thread = None

    def _progress_loop(self) -> None:
        while not self._stop.is_set():
            msg = None
            delay = 0.0
            with self._stage_lock:
                if self._staged:
                    key = self._stage_rng.choice(list(self._staged))
                    channel = self._staged[key]
                    msg = channel.popleft()
                    if not channel:
                        del self._staged[key]
                    delay = self._stage_rng.random() * self.delivery_jitter
            if msg is None:
                time.sleep(1e-4)
                continue
            time.sleep(delay)
            self._deliver(msg)
            with self._stage_lock:
                self._staged_count -= 1

    def comm(self, rank: int) -> "Communicator":
        if not 0 <= rank < self.num_ranks:
            raise CommError(f"rank {rank} out of range [0, {self.num_ranks})")
        return Communicator(self, rank)

    def comms(self) -> List["Communicator"]:
        return [self.comm(r) for r in range(self.num_ranks)]

    # ------------------------------------------------------------------
    # fabric internals
    # ------------------------------------------------------------------
    def _post_send(self, msg: Message) -> None:
        with self._locks[msg.dest]:
            self.stats.messages += 1
            self.stats.bytes += msg.nbytes
            self.stats.per_rank_sent[msg.source] = (
                self.stats.per_rank_sent.get(msg.source, 0) + 1
            )
            self.stats.per_rank_bytes[msg.source] = (
                self.stats.per_rank_bytes.get(msg.source, 0) + msg.nbytes
            )
        if self.delivery_jitter > 0:
            key = (msg.source, msg.dest, msg.tag)
            with self._stage_lock:
                self._staged.setdefault(key, deque()).append(msg)
                self._staged_count += 1
            return
        self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        with self._locks[msg.dest]:
            posted = self._posted[msg.dest]
            for i, req in enumerate(posted):
                if req._matches(msg):
                    posted.pop(i)
                    req._deliver(msg)
                    self.arrivals[msg.dest] += 1
                    return
            self._unexpected[msg.dest].append(msg)

    def _post_recv(self, dest: int, req: RecvRequest) -> None:
        with self._locks[dest]:
            queue = self._unexpected[dest]
            for i, msg in enumerate(queue):
                if req._matches(msg):
                    queue.pop(i)
                    req._deliver(msg)
                    self.arrivals[dest] += 1
                    return
            self._posted[dest].append(req)

    def pending_messages(self, rank: int) -> int:
        """Unmatched messages queued at ``rank`` (diagnostics)."""
        with self._locks[rank]:
            return len(self._unexpected[rank])

    def outstanding_recvs(self, rank: int) -> int:
        with self._locks[rank]:
            return len(self._posted[rank])

    def quiescent(self) -> bool:
        """No staged/unmatched messages and no posted receives anywhere."""
        if self._staged_count:
            return False
        return all(
            self.pending_messages(r) == 0 and self.outstanding_recvs(r) == 0
            for r in range(self.num_ranks)
        )


class Communicator:
    """One rank's endpoint (cf. an MPI communicator + rank binding)."""

    def __init__(self, fabric: SimMPI, rank: int) -> None:
        self.fabric = fabric
        self.rank = rank

    @property
    def size(self) -> int:
        return self.fabric.num_ranks

    def isend(self, data: Any, dest: int, tag: int = 0) -> SendRequest:
        if not 0 <= dest < self.size:
            raise CommError(f"isend to unknown rank {dest}")
        if tag < 0:
            raise CommError(f"send tag must be >= 0, got {tag}")
        msg = Message(
            source=self.rank,
            dest=dest,
            tag=tag,
            data=data,
            nbytes=_payload_nbytes(data),
            ctx=tracectx.current(),
        )
        req = SendRequest()
        self.fabric._post_send(msg)
        req._finish(None)  # eager buffered: complete at post
        return req

    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        self.isend(data, dest, tag).wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommError(f"irecv from unknown rank {source}")
        req = RecvRequest(source, tag)
        self.fabric._post_recv(self.rank, req)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None) -> Any:
        return self.irecv(source, tag).wait(timeout)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already queued (non-consuming)."""
        with self.fabric._locks[self.rank]:
            probe = RecvRequest(source, tag)
            return any(probe._matches(m) for m in self.fabric._unexpected[self.rank])
