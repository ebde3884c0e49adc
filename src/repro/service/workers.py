"""Sharded solve workers: thread and process backends.

Each shard is a thread owning an (unbounded — backpressure lives at
the front door) batch queue; the service routes every batch for a
given scene to the same shard, so the shard's lazily-built
:class:`~repro.ups.PreparedScene` serves the whole batch. The
``process`` backend keeps the same shard threads for orchestration but
executes the ray trace itself in a ``ProcessPoolExecutor`` subprocess,
sidestepping the GIL for CPU-bound solve streams.

Failures retry with exponential backoff (``max_retries`` attempts
beyond the first) before the request is failed — the service-layer
counterpart of the fault-injection discipline in
``tests/test_failure_injection.py``, and the hook the tests use: a
``fault_hook(fingerprint, attempt)`` callable injected through the
service config runs before every attempt and may raise.

Every solve is wrapped in a tracer span (``cat="service"``) so worker
shards appear as swim-lanes in the Chrome trace next to the scheduler
ranks, and publishes ``service.worker.solves{worker=N}``,
``service.worker.retries``, ``service.worker.failures``, and the
``service.solve.seconds`` histogram.
"""

from __future__ import annotations

import queue as _stdlib_queue
import threading
import time
from typing import Callable, List, Optional

from repro.perf import tracectx
from repro.perf.metrics import MetricsRegistry, get_metrics
from repro.perf.tracer import SpanTracer, get_tracer
from repro.service.batcher import Batch
from repro.service.schema import CachedSolve
from repro.ups import PreparedScene, ProblemSpec, prepare_scene, run_prepared, run_ups
from repro.util.errors import ServiceError

BACKENDS = ("thread", "process")


def _solve_in_process(spec: ProblemSpec):
    """Process-backend entry point: run one solve, return a slim,
    picklable payload: only what the cache keeps."""
    result = run_ups(spec)
    return result.divq, result.rays_traced, result.solve_time_s


class WorkerPool:
    """``num_workers`` shard threads pulling :class:`Batch` work.

    ``sink`` is the service: it must provide ``expire(pending)``,
    ``completed(pending, payload, attempts, batch_size, worker)`` and
    ``failed(pending, error)``.
    """

    def __init__(
        self,
        num_workers: int,
        sink,
        backend: str = "thread",
        max_retries: int = 2,
        retry_backoff_s: float = 0.01,
        fault_hook: Optional[Callable[[str, int], None]] = None,
        fault_plan=None,
        shard_queue_depth: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ServiceError(f"unknown worker backend {backend!r}")
        if num_workers < 1:
            raise ServiceError(f"need >= 1 worker, got {num_workers}")
        self.num_workers = int(num_workers)
        self.sink = sink
        self.backend = backend
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.fault_hook = fault_hook
        # worker deaths from a resilience FaultPlan: dead shards never
        # start, and dispatch routes their scenes to the next survivor
        self._dead = (
            {w for w in fault_plan.dead_workers() if w < self.num_workers}
            if fault_plan is not None
            else set()
        )
        if len(self._dead) >= self.num_workers:
            raise ServiceError(
                f"fault plan kills all {self.num_workers} worker shard(s); "
                "nothing would ever be solved"
            )
        # shard queues are bounded so overload propagates backwards:
        # full shard -> dispatch blocks -> batcher stalls -> the front
        # door submission queue fills -> submit() raises. Without this
        # the bounded front door would be decorative.
        self._queues: List[_stdlib_queue.Queue] = [
            _stdlib_queue.Queue(maxsize=max(1, int(shard_queue_depth)))
            for _ in range(self.num_workers)
        ]
        self._metrics = metrics if metrics is not None else get_metrics()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._threads = [
            threading.Thread(
                target=self._shard_loop, args=(i,), name=f"service-worker-{i}",
                daemon=True,
            )
            for i in range(self.num_workers)
        ]
        self._executor = None  # ProcessPoolExecutor, created on first use
        self._executor_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> None:
        for i, t in enumerate(self._threads):
            if i in self._dead:
                self._metrics.counter("service.worker.deaths", worker=i).inc()
                continue
            t.start()

    def shard_for(self, scene_key: str) -> int:
        """Scene affinity: one scene always lands on one shard."""
        return int(scene_key[:8], 16) % self.num_workers

    def _live_shard(self, shard: int) -> int:
        """First surviving shard at or after ``shard`` (wrapping): a
        dead worker's scenes all fail over to the same survivor, so
        scene affinity is preserved across the death."""
        for offset in range(self.num_workers):
            candidate = (shard + offset) % self.num_workers
            if candidate not in self._dead:
                return candidate
        raise ServiceError("no live worker shard")  # pragma: no cover

    def dispatch(self, batch: Batch) -> None:
        self._queues[self._live_shard(self.shard_for(batch.scene_key))].put(batch)

    def stop(self, wait: bool = True) -> None:
        for q in self._queues:
            q.put(None)
        if wait:
            for i, t in enumerate(self._threads):
                if i not in self._dead:
                    t.join(timeout=30.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    def _shard_loop(self, worker_id: int) -> None:
        # timed get: a wedged dispatcher can never strand a shard thread
        # in an unkillable blocking wait (the linter's blocking-call rule)
        while True:
            try:
                batch = self._queues[worker_id].get(timeout=0.5)
            except _stdlib_queue.Empty:
                continue
            if batch is None:
                return
            self._run_batch(worker_id, batch)

    def _run_batch(self, worker_id: int, batch: Batch) -> None:
        scene: Optional[PreparedScene] = None
        now = time.monotonic()
        live = []
        for pending in batch.entries:
            if pending.expired(now):
                self.sink.expire(pending)
            else:
                live.append(pending)
        for pending in live:
            fp = pending.request.fingerprint
            # re-enter the submitter's causal trace: the worker's
            # prepare/solve spans join the trace that started at submit()
            with tracectx.use(pending.request.ctx):
                try:
                    if scene is None and self.backend == "thread":
                        with self._tracer.span(
                            "service.prepare_scene", cat="service",
                            scene=batch.scene_key[:12],
                        ):
                            scene = prepare_scene(pending.request.spec)
                    payload, attempts = self._solve_with_retries(
                        pending.request.spec, scene, fp, worker_id
                    )
                except Exception as exc:  # noqa: BLE001 — any failure fails the request
                    self._metrics.counter(
                        "service.worker.failures", worker=worker_id
                    ).inc()
                    self.sink.failed(
                        pending,
                        ServiceError(
                            f"solve {fp[:12]} failed after "
                            f"{self.max_retries + 1} attempt(s): {exc}"
                        ),
                    )
                    continue
                self.sink.completed(pending, payload, attempts, len(live), worker_id)

    def _solve_with_retries(
        self,
        spec: ProblemSpec,
        scene: Optional[PreparedScene],
        fingerprint: str,
        worker_id: int,
    ):
        last_exc: Optional[Exception] = None
        for attempt in range(1, self.max_retries + 2):
            try:
                if self.fault_hook is not None:
                    self.fault_hook(fingerprint, attempt)
                with self._tracer.span(
                    "service.solve", cat="service",
                    fingerprint=fingerprint[:12], attempt=attempt,
                    worker=worker_id,
                ):
                    payload = self._solve_once(spec, scene, fingerprint)
                self._metrics.counter(
                    "service.worker.solves", worker=worker_id
                ).inc()
                self._metrics.histogram("service.solve.seconds").observe(
                    payload.solve_time_s
                )
                return payload, attempt
            except Exception as exc:  # noqa: BLE001 — retry any solve failure
                last_exc = exc
                if attempt <= self.max_retries:
                    self._metrics.counter("service.worker.retries").inc()
                    time.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
        assert last_exc is not None
        raise last_exc

    def _solve_once(
        self, spec: ProblemSpec, scene: Optional[PreparedScene], fingerprint: str
    ) -> CachedSolve:
        if self.backend == "process":
            divq, rays, solve_time = self._submit_to_process(spec)
        else:
            result = run_prepared(spec, scene)
            divq = result.divq
            rays = result.rays_traced
            solve_time = result.solve_time_s
        return CachedSolve(
            fingerprint=fingerprint,
            divq=divq,
            rays_traced=int(rays),
            solve_time_s=float(solve_time),
        )

    def _submit_to_process(self, spec: ProblemSpec):
        with self._executor_lock:
            if self._executor is None:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.num_workers)
            executor = self._executor
        return executor.submit(_solve_in_process, spec).result()
