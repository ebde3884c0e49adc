"""Request/result schema of the radiation-solve service.

A :class:`SolveRequest` is one radiation solve, content-addressed by
the spec fingerprint (:func:`repro.ups.spec_fingerprint`); a
:class:`SolveResult` is what the caller gets back, carrying both the
physics output (``divq``, rays traced) and the serving metadata (cache
hit, batch size, retry count, latency). :class:`SolveHandle` is the
future the service hands out at submission — callers block on
:meth:`SolveHandle.result`, or ask to be told
(:meth:`SolveHandle.add_done_callback`) when one of many completes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.perf import tracectx
from repro.ups import ProblemSpec, scene_fingerprint, spec_fingerprint
from repro.util.errors import ServiceError

_request_ids = itertools.count()


@dataclass
class SolveRequest:
    """One solve submission: the spec plus serving parameters."""

    spec: ProblemSpec
    #: seconds the caller is willing to wait (None = no deadline)
    deadline_s: Optional[float] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    fingerprint: str = ""
    scene_key: str = ""
    #: causal trace context captured at submission — continues the
    #: submitter's ambient trace if one is active, else starts a new
    #: one; queue, batcher, worker, and cache spans all re-enter it
    ctx: Optional[tracectx.TraceContext] = None

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = spec_fingerprint(self.spec)
        if not self.scene_key:
            self.scene_key = scene_fingerprint(self.spec)
        if self.ctx is None:
            self.ctx = tracectx.child_or_new()


@dataclass
class CachedSolve:
    """The cacheable payload of one solve — everything that is a pure
    function of the fingerprint (per-request serving metadata lives on
    :class:`SolveResult` instead)."""

    fingerprint: str
    divq: np.ndarray
    rays_traced: int
    solve_time_s: float


@dataclass
class SolveResult:
    """One completed request: physics output + serving metadata."""

    request_id: int
    fingerprint: str
    divq: np.ndarray
    rays_traced: int
    #: wall time of the ray trace that produced the payload (the
    #: original solve's time when served from cache)
    solve_time_s: float
    #: served straight from the result cache at submission time
    cache_hit: bool = False
    #: attached to an identical in-flight solve instead of tracing again
    coalesced: bool = False
    #: number of requests in the batch this solve rode in (1 = alone)
    batch_size: int = 1
    #: solve attempts including retries (0 for cache hits)
    attempts: int = 0
    #: worker shard that ran the solve (-1 = served without a worker)
    worker: int = -1
    #: submit-to-completion wall time as seen by the service
    latency_s: float = 0.0


class SolveHandle:
    """The caller's future for one submitted request.

    Completed exactly once, with either a :class:`SolveResult` or a
    :class:`~repro.util.errors.ServiceError`; late completions (a solve
    finishing after the request's deadline already failed the handle)
    are dropped.
    """

    def __init__(self, request: SolveRequest) -> None:
        self.request = request
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: List[Callable[[], None]] = []
        self._result: Optional[SolveResult] = None
        self._error: Optional[ServiceError] = None

    def done(self) -> bool:
        return self._done.is_set()

    def set_result(self, result: SolveResult) -> None:
        self._complete(result, None)

    def set_error(self, error: ServiceError) -> None:
        self._complete(None, error)

    def _complete(self, result, error) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._result, self._error = result, error
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn()

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` once, from the completing thread, when the
        handle completes — at once if it already has."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn()

    def result(self, timeout: Optional[float] = None) -> SolveResult:
        """Block until completion; raises the failure if there was one."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"request {self.request.request_id} not done after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class PendingSolve:
    """A queued solve: the handle plus its service-side timestamps.

    ``abs_deadline`` is on the monotonic clock (``time.monotonic()``),
    fixed at submission; batcher and workers drop the pending the
    moment it is past due instead of tracing rays nobody will wait for.
    """

    handle: SolveHandle
    submitted_at: float
    abs_deadline: Optional[float] = None

    @property
    def request(self) -> SolveRequest:
        return self.handle.request

    def expired(self, now: float) -> bool:
        return self.abs_deadline is not None and now > self.abs_deadline
