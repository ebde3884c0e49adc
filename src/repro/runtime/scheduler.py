"""Execution engines for compiled task graphs: one loop, five policies.

Uintah runs one scheduler per rank: worker threads pull ready tasks
from shared queues and progress MPI through the request pool (paper
Sections II and IV). That is written once here —
:class:`~repro.runtime.taskgraph.ReadyTracker` says *when* a task may
run, :func:`run_task` is *how* one runs, :class:`RankLoop` is one rank's
workers pulling from the tracker-fed ready queue — and each scheduler
decides only how many ranks and workers there are, which ready task
goes next, and where it runs:

* :class:`SerialScheduler` — one rank, the caller's thread, FIFO: the
  reference, in :meth:`CompiledGraph.topological_order` order.
* :class:`ThreadedScheduler` — one rank, N workers; optionally a random
  pick among the ready tasks, to shake out order dependencies the way
  Uintah's out-of-order execution does.
* :class:`DistributedScheduler` — R rank threads of one worker, linked
  by :class:`~repro.runtime.mpi.SimMPI`: cross-rank dependencies are
  isend/irecv pairs, the receives managed by one of the Section IV
  request pools (wait-free by default).
* :class:`~repro.runtime.gpu_scheduler.GPUScheduler` — one rank, one
  worker, an H2D stage queue in front of execution for device tasks;
  :class:`~repro.runtime.multigpu.MultiGPUScheduler` is the same policy
  choosing among N devices.

All five produce identical DataWarehouse contents for the same graph —
the invariant the integration tests enforce.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dw.datawarehouse import DataWarehouse
from repro.dw.label import VarKind
from repro.dw.variables import CCVariable
from repro.perf import tracectx
from repro.perf.flightrec import get_flight_recorder
from repro.perf.metrics import Histogram, MetricsRegistry, get_metrics
from repro.perf.rankstats import StatSummary, publish_rank_stats
from repro.perf.tracer import SpanTracer, get_tracer
from repro.perf.tsdb import get_collector
from repro.runtime.mpi import Communicator, SimMPI
from repro.runtime.task import Task, TaskContext
from repro.runtime.taskgraph import CompiledGraph, DetailedTask, ReadyTracker
from repro.util.errors import SchedulerError
from repro.util.timing import TimerRegistry


def observers(
    tracer: Optional[SpanTracer], metrics: Optional[MetricsRegistry]
) -> Tuple[SpanTracer, MetricsRegistry]:
    """A scheduler's own tracer/metrics, else the process defaults."""
    return (
        tracer if tracer is not None else get_tracer(),
        metrics if metrics is not None else get_metrics(),
    )


def run_task(
    dts: Sequence[DetailedTask],
    graph: CompiledGraph,
    old_dw: Optional[DataWarehouse],
    new_dw: DataWarehouse,
    tracer: SpanTracer,
    context: Callable[..., TaskContext] = TaskContext,
    cat: str = "task",
    **span_args,
) -> float:
    """The task lifecycle, in one place: build the checked contexts of
    ``dts`` — one launch: instances of one task, several only where it
    declares a ``launch_share`` — open the span (always carrying
    ``patch`` and ``level``; ``fused`` and ``patches`` for a task that
    shares launches), call back once, and return the duration in
    seconds."""
    first = dts[0]
    task = first.task
    shares_launches = task.launch_share is not None
    level = graph.grid.level(first.level_index)
    ctxs = [context(task, dt.patch, level, old_dw, new_dw, rank=dt.rank) for dt in dts]
    if shares_launches:
        span_args.update(fused=len(dts), patches=[dt.patch.patch_id for dt in dts])
    t0 = time.perf_counter()
    with tracer.span(
        task.name, cat=cat,
        patch=first.patch.patch_id, level=first.level_index, **span_args,
    ):
        task.callback(ctxs if shares_launches else ctxs[0])
    return time.perf_counter() - t0


def publish_execution(
    scheduler: str, graph: CompiledGraph, metrics: MetricsRegistry, seconds: float
) -> None:
    """The instrumentation seam every scheduler ends ``execute`` with:
    the ``scheduler.*`` series, then one sample of the default registry
    into the process tsdb collector (when one is installed)."""
    executed = metrics.counter("scheduler.tasks_executed", scheduler=scheduler)
    executed.inc(len(graph.detailed_tasks))
    metrics.gauge("scheduler.taskexec_seconds", scheduler=scheduler).set(seconds)
    collector = get_collector()
    if collector is not None:
        collector.maybe_sample()


def take_launch(
    dt: DetailedTask,
    pool: Deque[DetailedTask],
    limit: int,
    accept: Optional[Callable[[DetailedTask], bool]] = None,
) -> List[DetailedTask]:
    """The launch rule, for every policy: ``dt`` and the tasks of ``pool``
    that share its launch, taken out of it oldest first — other instances
    of its task (that ``accept`` passes), while they still fit one launch
    and number ``limit`` at most. A task that declares no
    ``launch_share`` runs alone."""
    dts, share_of = [dt], dt.task.launch_share
    if share_of is None:
        return dts
    share = share_of(dt.patch)
    for other in list(pool):
        if other.task is not dt.task or (accept is not None and not accept(other)):
            continue
        share += share_of(other.patch)
        if len(dts) == limit or share > 1.0 + 1e-9:  # six sixths fit, seven do not
            break
        pool.remove(other)
        dts.append(other)
    return dts


def pick_fifo(
    ready: Deque[DetailedTask], limit: Callable[[Task], int]
) -> List[DetailedTask]:
    """The default pick: the ready task that has waited longest, with the
    ready instances that share its launch (none: nothing is ready)."""
    if not ready:
        return []
    dt = ready.popleft()
    return take_launch(dt, ready, limit(dt.task))


class RankLoop:
    """One rank's share of a compiled graph, run to completion.

    The policy is ``launch(dts)``, which runs one launch through
    :func:`run_task`, and ``pick(ready, limit)``, which takes the next
    launch out of the ready queue (or out of a set the policy staged from
    it) by :func:`take_launch`. ``limit(task)`` is a worker's cap: on one
    worker every ready instance that fits, on N at most an N-th of the
    rank's instances of the task, never the whole queue, so other workers
    still find work. With a ``link`` the rank has a communicator: each
    pass progresses its request pool, and an idle worker yields and polls
    again rather than wait for a finishing task's signal.
    """

    def __init__(
        self,
        tasks: Sequence[DetailedTask],
        launch: Callable[[List[DetailedTask]], None],
        pick: Callable[
            [Deque[DetailedTask], Callable[[Task], int]], List[DetailedTask]
        ] = pick_fifo,
        link: Optional["RankLink"] = None,
    ) -> None:
        self._by_id = {t.dtask_id: t for t in tasks}
        self._instances = Counter(t.task for t in tasks)
        self._tracker = ReadyTracker(tasks)
        self._ready = deque(self._by_id[tid] for tid in self._tracker.start())
        self._launch = launch
        self._pick = pick
        self._link = link
        self._errors: List[BaseException] = []
        self._cv = threading.Condition(threading.Lock())

    def _release(self, tids: List[int]) -> None:
        self._ready.extend(self._by_id[tid] for tid in tids)

    def _limit(self, workers: int) -> Callable[[Task], int]:
        """A worker's cap on a launch of a task: its N-th of the rank's
        instances, rounded up."""
        return lambda task: -(-self._instances[task] // workers)

    def run(self, workers: int = 1) -> None:
        """Work the rank on ``workers`` threads, the caller's own among them."""
        helpers = [
            threading.Thread(target=self._work, args=(workers,)) for _ in range(workers - 1)
        ]
        for t in helpers:
            t.start()
        self._work(workers)
        for t in helpers:
            t.join()
        if self._errors:
            raise self._errors[0]

    def _work(self, workers: int) -> None:
        link = self._link
        limit = self._limit(workers)
        idle_spins = 0
        try:
            while True:
                with self._cv:
                    if self._errors or not self._tracker.remaining:
                        return
                    if link is not None:
                        for msg_id in link.progress():
                            self._release(self._tracker.message_arrived(msg_id))
                    dts = self._pick(self._ready, limit)
                    if not dts and link is None:
                        self._cv.wait(0.05)
                if dts:
                    idle_spins = 0
                    self._launch(dts)
                    with self._cv:
                        for dt in dts:
                            self._release(self._tracker.task_done(dt.dtask_id))
                        self._cv.notify_all()
                elif link is not None:
                    idle_spins += 1
                    link.stats.idle_spins += 1
                    if idle_spins > 2_000_000:
                        raise SchedulerError(
                            f"rank {link.rank} deadlocked: "
                            f"{self._tracker.remaining} tasks stuck"
                        )
                    time.sleep(0)
        except BaseException as exc:  # repro: allow(overbroad-except) — re-raised on the caller's thread
            with self._cv:
                self._errors.append(exc)
                self._cv.notify_all()


class SerialScheduler:
    """Reference executor: one rank, one worker, dependency order.

    Also the shell the other single-rank policies share (shape check,
    timed :class:`RankLoop`, publishing); they override :meth:`_loop`."""

    name = "serial"
    workers = 1

    def __init__(
        self,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.timers = TimerRegistry()
        self.tracer = tracer
        self.metrics = metrics

    def _loop(self, graph, old_dw, new_dw, tracer) -> RankLoop:
        """This execution's loop; by default every task on the host, FIFO."""
        return RankLoop(
            graph.detailed_tasks,
            lambda dts: run_task(dts, graph, old_dw, new_dw, tracer),
        )

    def _publish(self, metrics: MetricsRegistry) -> None:
        """Policy-specific series, published before the shared ones."""

    def execute(
        self,
        graph: CompiledGraph,
        old_dw: Optional[DataWarehouse] = None,
        new_dw: Optional[DataWarehouse] = None,
    ) -> DataWarehouse:
        if graph.num_ranks != 1 or graph.messages:
            raise SchedulerError(
                f"{type(self).__name__} runs single-rank graphs (compile "
                f"with num_ranks=1 and no assignment)"
            )
        tracer, metrics = observers(self.tracer, self.metrics)
        dw = new_dw if new_dw is not None else DataWarehouse()
        with self.timers("taskexec"):
            self._loop(graph, old_dw, dw, tracer).run(self.workers)
        self._publish(metrics)
        publish_execution(self.name, graph, metrics, self.timers("taskexec").elapsed)
        return dw


class ThreadedScheduler(SerialScheduler):
    """Shared-memory multi-threaded executor (one node, many cores)."""

    name = "threaded"

    def __init__(
        self,
        num_threads: int = 4,
        shuffle: bool = False,
        seed: int = 0,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_threads < 1:
            raise SchedulerError("num_threads must be >= 1")
        super().__init__(tracer, metrics)
        self.num_threads = self.workers = int(num_threads)
        self.shuffle = bool(shuffle)
        self.seed = int(seed)

    def _loop(self, graph, old_dw, new_dw, tracer) -> RankLoop:
        rng = random.Random(self.seed)

        def pick_shuffled(ready, limit):
            if not ready:
                return []
            idx = rng.randrange(len(ready))
            dt = ready[idx]
            del ready[idx]
            return take_launch(dt, ready, limit(dt.task))

        return RankLoop(
            graph.detailed_tasks,
            lambda dts: run_task(dts, graph, old_dw, new_dw, tracer),
            pick_shuffled if self.shuffle else pick_fifo,
        )


@dataclass
class RankStats:
    """Per-rank execution accounting, Uintah's ExecTimes in miniature.

    ``local_comm_time`` is the executable counterpart of Figure 1's
    measured quantity: the time the rank spent inside its request pool
    (posting/testing/processing messages), counted as the rank thread's
    CPU time (``time.thread_time``), not wall time — rank threads share
    cores and the GIL, and a pass that waits for the other rank must not
    be charged its work. ``task_exec_time`` stays wall time."""

    rank: int
    task_exec_time: float = 0.0
    local_comm_time: float = 0.0
    tasks_executed: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    idle_spins: int = 0
    #: per-rank task-duration quantiles (seconds), estimated from a
    #: bucketed histogram — the tail, not just the mean, is what load
    #: imbalance shows up in
    task_time_p50: float = 0.0
    task_time_p95: float = 0.0
    task_time_p99: float = 0.0


@dataclass
class RankLink:
    """One rank's end of the fabric: its receives posted into a request
    pool, the sends its finished tasks owe, and the accounting of both
    into the rank's :class:`RankStats`."""

    graph: CompiledGraph
    comm: Communicator
    pool_kind: str
    old_dw: Optional[DataWarehouse]
    new_dw: DataWarehouse
    tracer: SpanTracer
    stats: RankStats

    def __post_init__(self) -> None:
        # imported here: repro.comm builds on repro.runtime.mpi, so a
        # module-level import would be circular
        from repro.comm.driver import make_pool
        from repro.comm.request import CommNode

        self.rank = self.stats.rank
        receives = self.graph.messages_to(self.rank)
        # sized before the fact to the receives it will hold, so a scan
        # walks only them and the pool never grows (the paper's a-priori
        # sizing)
        self.pool = make_pool(self.pool_kind, capacity=max(1, len(receives)))
        self._arrived: List[int] = []
        self._progressed = 0  # the fabric's arrivals count at the last pool pass
        self._task_hist = Histogram("scheduler.rank.task_seconds", ())
        self._recorder = get_flight_recorder()
        self._outgoing: Dict[int, List] = {}
        for msg in self.graph.messages_from(self.rank):
            self._outgoing.setdefault(msg.src_dtask_id, []).append(msg)
        for msg in receives:
            req = self.comm.irecv(source=msg.src_rank, tag=msg.msg_id)
            on_finish = partial(self._unpack, msg, req)
            self.pool.insert(CommNode(req, nbytes=msg.nbytes, on_finish=on_finish))

    def _unpack(self, msg, req, data) -> None:
        # the recv span is attributed to the *sender's* causal chain:
        # its trace_id comes off the delivered message (req.ctx), not
        # this rank's ambient context
        args = {"msg_id": msg.msg_id, "src": msg.src_rank, "dst": self.rank}
        sender_ctx = req.ctx
        if sender_ctx is not None:
            args["trace_id"] = sender_ctx.trace_id
            args["parent_span_id"] = sender_ctx.span_id
        with self.tracer.span("comm.recv", cat="comm", **args):
            self.tracer.flow_finish(msg.msg_id, **args)
            for (label, region, level_index), piece in zip(msg.parts, data):
                if label.kind is VarKind.PER_LEVEL:
                    self.new_dw.put_level(label, level_index, piece)
                else:
                    self.new_dw.add_foreign(
                        label, msg.src_patch_id, CCVariable(region, piece)
                    )
            self._arrived.append(msg.msg_id)

    def progress(self) -> List[int]:
        """Process completed receives; the message ids that arrived. No pool
        pass until the fabric completes another receive of this rank's."""
        arrivals = self.comm.fabric.arrivals[self.rank]
        if arrivals == self._progressed:
            return []
        self._progressed = arrivals
        t0 = time.thread_time()
        self.pool.process_ready()
        self.stats.local_comm_time += time.thread_time() - t0
        arrived, self._arrived = self._arrived, []
        return arrived

    def launch(self, dts: Sequence[DetailedTask]) -> None:
        """Run one launch and ship every message its results satisfy.
        The accounting stays per task: a launch of n is n tasks, each
        of a n-th of its duration."""
        stats, tracer, rank = self.stats, self.tracer, self.rank
        # one causal chain per launch: the task span, every send it
        # triggers, and (via the fabric) the matching recv spans on
        # other ranks all share this trace_id
        task_trace = tracectx.child_or_new()
        with tracectx.use(task_trace):
            launch_dur = run_task(dts, self.graph, self.old_dw, self.new_dw, tracer, rank=rank)
            stats.task_exec_time += launch_dur
            task_dur = launch_dur / len(dts)
            for dt in dts:
                self._task_hist.observe(task_dur)
                stats.tasks_executed += 1
                # always-on black box: one atomic deque append per task
                self._recorder.record(
                    "task", dt.task.name, rank=rank,
                    patch=dt.patch.patch_id, dur_s=round(task_dur, 6),
                    trace_id=task_trace.trace_id,
                )
            t0 = time.thread_time()
            for dt in dts:
                for msg in self._outgoing.get(dt.dtask_id, ()):
                    # one payload per message: its parts' arrays, in part order
                    data = [
                        self.new_dw.get_level(label, level_index)
                        if label.kind is VarKind.PER_LEVEL
                        else self.new_dw.get(label, dt.patch.patch_id).view(region).copy()
                        for label, region, level_index in msg.parts
                    ]
                    with tracer.span(
                        "comm.send", cat="comm",
                        msg_id=msg.msg_id, src=rank, dst=msg.dst_rank,
                    ):
                        tracer.flow_start(
                            msg.msg_id, msg_id=msg.msg_id, src=rank, dst=msg.dst_rank
                        )
                        self.comm.isend(data, dest=msg.dst_rank, tag=msg.msg_id)
                    stats.messages_sent += 1
                    stats.bytes_sent += msg.nbytes
            stats.local_comm_time += time.thread_time() - t0

    def close(self, metrics: MetricsRegistry) -> None:
        """Task-duration quantiles into the stats; the pool's counters out."""
        hist = self._task_hist
        if hist.count:
            self.stats.task_time_p50 = hist.quantile(0.50) or 0.0
            self.stats.task_time_p95 = hist.quantile(0.95) or 0.0
            self.stats.task_time_p99 = hist.quantile(0.99) or 0.0
        self.pool.publish_metrics(metrics, pool=self.pool_kind, rank=self.rank)


class DistributedScheduler:
    """One thread per rank over simulated MPI (the full Uintah shape).

    ``pool_kind`` selects the request-pool implementation processing
    each rank's receives: 'waitfree' (the paper's fix), 'locked', or
    'legacy-racy' (for demonstrating the Section IV.A failure).
    """

    def __init__(
        self,
        num_ranks: int,
        pool_kind: str = "waitfree",
        delivery_jitter: float = 0.0,
        jitter_seed: int = 0,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """``delivery_jitter`` > 0 injects randomized message arrival
        order/latency into the fabric (failure-injection testing)."""
        if num_ranks < 1:
            raise SchedulerError("num_ranks must be >= 1")
        self.num_ranks = int(num_ranks)
        self.pool_kind = pool_kind
        self.delivery_jitter = float(delivery_jitter)
        self.jitter_seed = int(jitter_seed)
        self.timers = TimerRegistry()
        self.tracer = tracer
        self.metrics = metrics
        self.fabric: Optional[SimMPI] = None
        #: per-rank ExecTimes, populated by execute()
        self.rank_stats: Dict[int, RankStats] = {}
        self._reduced: Dict[str, StatSummary] = {}

    def execute(
        self,
        graph: CompiledGraph,
        old_dw: Optional[DataWarehouse] = None,
    ) -> Dict[int, DataWarehouse]:
        """Run the graph; returns each rank's new DataWarehouse."""
        if graph.num_ranks != self.num_ranks:
            raise SchedulerError(
                f"graph compiled for {graph.num_ranks} ranks, scheduler has "
                f"{self.num_ranks}"
            )
        tracer, metrics = observers(self.tracer, self.metrics)
        fabric = self.fabric = SimMPI(
            self.num_ranks,
            delivery_jitter=self.delivery_jitter,
            jitter_seed=self.jitter_seed,
        )
        self.rank_stats = {r: RankStats(rank=r) for r in range(self.num_ranks)}
        rank_dws = {r: DataWarehouse() for r in range(self.num_ranks)}
        errors: List[BaseException] = []
        err_lock = threading.Lock()

        def run_rank(rank: int) -> None:
            try:
                tracer.register_thread(tid=rank, name=f"rank {rank}")
                link = RankLink(
                    graph, fabric.comm(rank), self.pool_kind, old_dw,
                    rank_dws[rank], tracer, self.rank_stats[rank],
                )
                RankLoop(graph.tasks_on_rank(rank), link.launch, link=link).run()
                link.close(metrics)
            except BaseException as exc:  # repro: allow(overbroad-except) — re-raised on the caller's thread
                with err_lock:
                    errors.append(exc)

        with self.timers("execute"):
            threads = [
                threading.Thread(target=run_rank, args=(r,), name=f"rank-{r}")
                for r in range(self.num_ranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        fabric.shutdown()
        if errors:
            raise errors[0]
        self._reduced = publish_rank_stats(
            metrics, self.rank_stats, prefix="scheduler.rank",
            scheduler="distributed",
        )
        fabric.stats.publish_metrics(metrics)
        publish_execution("distributed", graph, metrics, self.timers("execute").elapsed)
        return rank_dws

    def runtime_stats(self) -> Dict[str, StatSummary]:
        """Uintah-style reduction (min/mean/max/total across ranks) of
        the last execution's per-rank stats, as published."""
        return self._reduced


def gather_cc(
    graph: CompiledGraph,
    rank_dws: Dict[int, DataWarehouse],
    label,
    level_index: int,
) -> np.ndarray:
    """Assemble one CC label's global field from the per-rank DWs
    (verification helper: distributed result == serial result).

    A level's patches are disjoint and inside its domain, so they tile
    it exactly when their volumes add up to the domain's: holes are
    found by that count, and NaN *values* are returned as data."""
    level = graph.grid.level(level_index)
    domain = level.domain_box
    out = np.empty(domain.extent)
    pasted = 0
    for patch in level.patches:
        rank = graph.assignment.get(patch.patch_id, 0)
        var = rank_dws[rank].get(label, patch.patch_id)
        out[patch.box.slices(origin=domain.lo)] = var.view(patch.box)
        pasted += patch.box.volume
    if pasted != domain.volume:
        raise SchedulerError(
            f"gather of {label.name} left holes: its patches cover {pasted} "
            f"of the {domain.volume} cells of {domain}"
        )
    return out
