"""Dynamic race detection: Eraser-style locksets + vector clocks.

The paper's contribution (iii) exists because a message-processing race
hid in the mutex-protected ``MPI_Testsome`` pool until it corrupted
runs at scale. ``comm/pool_locked.py`` reproduces that bug; this
module *detects* it — without needing the leak to actually fire — by
checking the locking discipline itself, the way Eraser's lockset
algorithm and ThreadSanitizer's happens-before tracking do:

* every monitored shared location must either be consistently guarded
  by at least one common lock (the lockset half), or
* each pair of conflicting accesses must be ordered by synchronization
  (the vector-clock half — lock releases/acquires and queue put/get
  transfer clocks).

An access pair that fails *both* tests is a race. The hybrid means the
wait-free pool's per-slot flags pass (common lock per slot), the safe
locked pool passes (global lock), the threaded scheduler passes (its
ready-queue lock carries happens-before from producer to consumer) —
and the legacy racy scan, which touches records with no lock and no
ordering, is flagged deterministically as soon as two threads overlap,
whether or not a buffer actually leaked on this run.

Instrumentation is a shim, not a rewrite: :func:`instrument_comm_pool`
wraps an existing pool's locks and records, :func:`patch_locks` makes
every ``threading.Lock`` created in a scope a tracked lock (for the
threaded scheduler), :func:`instrument_datawarehouse` watches per-patch
variable writes, and :func:`instrument_worker_pool` treats the service
shard queues as happens-before channels.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from repro.check.findings import CheckFinding, call_site

#: rule catalog: name -> (severity, one-line description)
RULES = {
    "lockset-race": (
        "error",
        "conflicting accesses to a shared location with no common lock "
        "and no happens-before ordering",
    ),
}

#: frames from these files are the detector itself, never the subject
_SHIM_FILES = ("repro/check/races.py", "repro/check/findings.py")


class _VectorClock(dict):
    """tid -> logical time; missing entries are 0."""

    def advance(self, tid: int) -> None:
        self[tid] = self.get(tid, 0) + 1

    def join(self, other: "_VectorClock") -> None:
        for tid, clock in other.items():
            if clock > self.get(tid, 0):
                self[tid] = clock

    def happens_before(self, tid: int, clock: int) -> bool:
        """Does event (tid, clock) happen-before this clock's owner?"""
        return clock <= self.get(tid, 0)

    def copy(self) -> "_VectorClock":
        return _VectorClock(self)


class _Access:
    """One recorded access epoch: who, when, under which locks, where."""

    __slots__ = ("tid", "clock", "lockset", "site")

    def __init__(self, tid: int, clock: int, lockset: frozenset, site: Tuple[str, int]):
        self.tid = tid
        self.clock = clock
        self.lockset = lockset
        self.site = site


class _Location:
    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: Optional[_Access] = None
        self.reads: Dict[int, _Access] = {}


class RaceDetector:
    """Lockset + vector-clock hybrid over explicitly monitored state.

    Subjects report four kinds of events: lock acquire/release
    (usually via :class:`TrackedLock`), channel send/recv (usually via
    :class:`TrackedQueue`), and reads/writes of monitored locations.
    Verdicts depend only on which thread pairs touch a location and
    under which locks — not on precise timing — which is what makes
    them reproducible run to run.
    """

    def __init__(self, max_findings: int = 100) -> None:
        self._lock = threading.Lock()
        self._threads: Dict[int, _VectorClock] = {}
        self._held: Dict[int, Set[int]] = {}
        self._lock_clocks: Dict[int, _VectorClock] = {}
        self._chan_clocks: Dict[int, _VectorClock] = {}
        self._locations: Dict[str, _Location] = {}
        self._lock_names: Dict[int, str] = {}
        self.max_findings = int(max_findings)
        self.findings: List[CheckFinding] = []
        self.races: List[dict] = []
        #: strong refs to instrumented objects (stable location identity)
        self._pins: List[object] = []

    # ------------------------------------------------------------------
    def _tid(self) -> int:
        return threading.get_ident()

    def _thread_clock(self, tid: int) -> _VectorClock:
        vc = self._threads.get(tid)
        if vc is None:
            vc = _VectorClock({tid: 1})
            self._threads[tid] = vc
            self._held[tid] = set()
        return vc

    # -- synchronization events ----------------------------------------
    def on_acquire(self, lock_id: int, name: str = "") -> None:
        with self._lock:
            tid = self._tid()
            vc = self._thread_clock(tid)
            if name:
                self._lock_names.setdefault(lock_id, name)
            lock_vc = self._lock_clocks.get(lock_id)
            if lock_vc is not None:
                vc.join(lock_vc)
            self._held[tid].add(lock_id)

    def on_release(self, lock_id: int) -> None:
        with self._lock:
            tid = self._tid()
            vc = self._thread_clock(tid)
            self._lock_clocks[lock_id] = vc.copy()
            vc.advance(tid)
            self._held[tid].discard(lock_id)

    def channel_send(self, chan_id: int) -> None:
        with self._lock:
            tid = self._tid()
            vc = self._thread_clock(tid)
            chan = self._chan_clocks.setdefault(chan_id, _VectorClock())
            chan.join(vc)
            vc.advance(tid)

    def channel_recv(self, chan_id: int) -> None:
        with self._lock:
            tid = self._tid()
            vc = self._thread_clock(tid)
            chan = self._chan_clocks.get(chan_id)
            if chan is not None:
                vc.join(chan)

    # -- data events ----------------------------------------------------
    def on_read(self, location: str) -> None:
        self._on_access(location, is_write=False)

    def on_write(self, location: str) -> None:
        self._on_access(location, is_write=True)

    def _on_access(self, location: str, is_write: bool) -> None:
        site = call_site(_SHIM_FILES)
        with self._lock:
            tid = self._tid()
            vc = self._thread_clock(tid)
            lockset = frozenset(self._held[tid])
            loc = self._locations.setdefault(location, _Location())
            access = _Access(tid, vc.get(tid, 0), lockset, site)

            def races_with(prev: _Access) -> bool:
                if prev.tid == tid:
                    return False
                if prev.lockset & lockset:
                    return False  # commonly locked
                if vc.happens_before(prev.tid, prev.clock):
                    return False  # ordered by synchronization
                return True

            if is_write:
                conflicts = []
                if loc.last_write is not None and races_with(loc.last_write):
                    conflicts.append(("write-write", loc.last_write))
                for r in loc.reads.values():
                    if races_with(r):
                        conflicts.append(("read-write", r))
                for kind, prev in conflicts[:1]:
                    self._report(location, kind, prev, access)
                loc.last_write = access
                loc.reads = {}
            else:
                if loc.last_write is not None and races_with(loc.last_write):
                    self._report(location, "write-read", loc.last_write, access)
                loc.reads[tid] = access

    def _report(self, location: str, kind: str, prev: _Access, cur: _Access) -> None:
        self.races.append({
            "location": location,
            "kind": kind,
            "first": {"site": f"{prev.site[0]}:{prev.site[1]}", "tid": prev.tid},
            "second": {"site": f"{cur.site[0]}:{cur.site[1]}", "tid": cur.tid},
        })
        if len(self.findings) >= self.max_findings:
            return
        self.findings.append(CheckFinding(
            rule="lockset-race",
            severity="error",
            message=(
                f"{kind} race on {location}: no common lock and no "
                f"happens-before edge between {prev.site[0]}:{prev.site[1]} "
                f"(thread {prev.tid}) and this access"
            ),
            file=cur.site[0],
            line=cur.site[1],
            check="races",
        ))

    # ------------------------------------------------------------------
    @property
    def race_count(self) -> int:
        return len(self.races)

    def distinct_locations(self) -> Set[str]:
        return {r["location"] for r in self.races}

    def pin(self, obj: object) -> None:
        """Keep ``obj`` alive so ``id()``-derived locations stay unique."""
        self._pins.append(obj)


class TrackedLock:
    """A ``threading.Lock`` stand-in that reports to a detector."""

    def __init__(self, inner, detector: RaceDetector, name: str = "lock") -> None:
        self._inner = inner
        self._det = detector
        self._name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # the shim must be transparent: it forwards exactly the
        # caller's blocking/timeout semantics, untimed included
        if timeout == -1:
            ok = self._inner.acquire(blocking)  # repro: allow(blocking-call)
        else:
            ok = self._inner.acquire(blocking, timeout)  # repro: allow(blocking-call)
        if ok:
            self._det.on_acquire(id(self._inner), self._name)
        return ok

    def release(self) -> None:
        self._det.on_release(id(self._inner))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        # ``with lock:`` has no timeout channel to forward
        return self.acquire()  # repro: allow(blocking-call)

    def __exit__(self, *exc) -> None:
        self.release()


class TrackedQueue:
    """Channel shim: put/get transfer vector clocks (message-passing
    happens-before), everything else delegates."""

    def __init__(self, inner, detector: RaceDetector, name: str = "queue") -> None:
        self._inner = inner
        self._det = detector
        self._name = name

    def put(self, item, *args, **kwargs) -> None:
        self._det.channel_send(id(self._inner))
        self._inner.put(item, *args, **kwargs)

    def get(self, *args, **kwargs):
        item = self._inner.get(*args, **kwargs)
        self._det.channel_recv(id(self._inner))
        return item

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def patch_locks(detector: RaceDetector):
    """Every ``threading.Lock()`` created inside the scope is tracked.

    The blunt instrument for code whose locks are local variables (the
    threaded scheduler's ready-queue lock): run construction+execution
    under this context and all its synchronization feeds the detector's
    vector clocks.
    """
    orig = threading.Lock

    def tracked_lock():
        return TrackedLock(orig(), detector, "patched.Lock")

    threading.Lock = tracked_lock
    try:
        yield detector
    finally:
        threading.Lock = orig


# ----------------------------------------------------------------------
# subject-specific shims
# ----------------------------------------------------------------------
def _instrument_node(node, detector: RaceDetector) -> None:
    """Monitor one CommNode's test/claim lifecycle as a shared location."""
    detector.pin(node)
    location = f"commnode:{id(node)}"
    orig_test = node.test
    orig_finish = node.finish_communication

    def test():
        detector.on_read(location)
        return orig_test()

    def finish_communication(ledger=None):
        detector.on_write(location)
        return orig_finish(ledger)

    node.test = test
    node.finish_communication = finish_communication


def instrument_comm_pool(pool, detector: RaceDetector):
    """Shim a request pool: its locks become tracked, every inserted
    record becomes a monitored location. Works on
    :class:`~repro.comm.pool_locked.LockedVectorCommPool` and
    :class:`~repro.comm.pool_waitfree.WaitFreeCommPool`.
    """
    detector.pin(pool)
    if hasattr(pool, "_slots"):  # wait-free pool: per-slot claim flags
        def wrap_slots():
            for slot in pool._slots:
                if not isinstance(slot.flag, TrackedLock):
                    slot.flag = TrackedLock(slot.flag, detector, "slot.flag")

        wrap_slots()
        orig_grow = pool._grow

        def grow():
            orig_grow()
            wrap_slots()

        pool._grow = grow
    if hasattr(pool, "_lock") and not isinstance(pool._lock, TrackedLock):
        pool._lock = TrackedLock(pool._lock, detector, "pool.lock")

    orig_insert = pool.insert

    def insert(node):
        _instrument_node(node, detector)
        orig_insert(node)

    pool.insert = insert
    return pool


def instrument_datawarehouse(dw, detector: RaceDetector):
    """Monitor per-(label, patch) puts and region reads. Every region
    read is one walk, ``get_regions_into`` (``get_regions`` and
    ``get_region`` allocate and call it; a launch reads its tasks'
    regions through it at once), so that is the one read entry point to
    watch. A read is recorded region by region, as if each task had
    walked alone: a patch the launch's bounding box meets but none of
    its regions is not read."""
    detector.pin(dw)
    orig_put = dw.put
    orig_get_regions_into = dw.get_regions_into

    def put(label, patch_id, var):
        detector.on_write(f"dw:{label.name}@p{patch_id}")
        return orig_put(label, patch_id, var)

    def get_regions_into(labels, level, region, outs, defaults=None, regions=None):
        for box in regions or (region,):
            for patch in level.patches_intersecting(box):
                for label in labels:
                    detector.on_read(f"dw:{label.name}@p{patch.patch_id}")
        return orig_get_regions_into(labels, level, region, outs, defaults, regions)

    dw.put = put
    dw.get_regions_into = get_regions_into
    return dw


def instrument_worker_pool(pool, detector: RaceDetector):
    """Shim a service WorkerPool: shard queues become happens-before
    channels and each dispatched batch a monitored location, so a batch
    mutated by the dispatcher after hand-off would be flagged."""
    detector.pin(pool)
    pool._queues = [
        TrackedQueue(q, detector, f"shard-{i}")
        for i, q in enumerate(pool._queues)
    ]
    orig_dispatch = pool.dispatch
    orig_run_batch = pool._run_batch

    def dispatch(batch):
        detector.pin(batch)
        detector.on_write(f"batch:{id(batch)}")
        orig_dispatch(batch)

    def run_batch(worker_id, batch):
        detector.on_read(f"batch:{id(batch)}")
        return orig_run_batch(worker_id, batch)

    pool.dispatch = dispatch
    pool._run_batch = run_batch
    return pool


# ----------------------------------------------------------------------
# the contended drive used by the CLI and the regression tests
# ----------------------------------------------------------------------
def drive_pool_contended(
    kind: str,
    num_threads: int = 4,
    num_messages: int = 32,
    unpack_delay: float = 2e-3,
    detector: Optional[RaceDetector] = None,
) -> RaceDetector:
    """Drive an instrumented request pool with concurrent processors.

    All messages are completed up front and the worker threads released
    together through a barrier, so every thread's completion scan
    overlaps every other's — the widest possible racing window. The
    verdict is deterministic by construction: the legacy racy scan
    touches records from multiple threads with an empty lockset (always
    flagged), while the safe and wait-free pools guard every touch with
    the pool lock / slot flag (never flagged).
    """
    import time

    from repro.comm.driver import make_pool
    from repro.comm.request import CommNode
    from repro.runtime.mpi import SimMPI

    det = detector if detector is not None else RaceDetector()
    pool = make_pool(kind, unpack_delay=unpack_delay)
    instrument_comm_pool(pool, det)

    fabric = SimMPI(2)
    send = fabric.comm(0)
    recv = fabric.comm(1)
    payload = bytes(256)
    for i in range(num_messages):
        send.isend(payload, dest=1, tag=i)
        req = recv.irecv(source=0, tag=i)
        pool.insert(CommNode(req, nbytes=256))

    barrier = threading.Barrier(num_threads)

    def worker() -> None:
        # the drive wants maximal overlap: all workers release at once
        barrier.wait()  # repro: allow(blocking-call)
        while pool.processed < num_messages:
            if pool.process_ready() == 0:
                time.sleep(0)

    threads = [
        threading.Thread(target=worker, name=f"race-worker-{t}")
        for t in range(num_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    fabric.shutdown()
    return det
