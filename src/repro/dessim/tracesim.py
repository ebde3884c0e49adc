"""Task-graph trace simulation: the *real* compiled graph on the
machine model.

Where :mod:`repro.dessim.cluster` prices a statistically representative
rank analytically, this module event-simulates an actual
:class:`~repro.runtime.taskgraph.CompiledGraph`: every detailed task
becomes a job on its rank's executor, every ghost message travels the
network model, and readiness follows the graph's true dependency and
message structure. The output is a per-rank timeline — busy, idle
(MPI-wait), makespan — which is how the paper's team diagnosed where
time went (their Figure 1 "local communication time" is exactly such a
timeline component).

Cost attribution is pluggable: callers hand a ``task_cost(dtask)``
function (e.g. priced from the K20X/Opteron models or measured from a
real run), and message latency comes from a
:class:`~repro.machine.network.NetworkModel`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.network import GEMINI, NetworkModel
from repro.runtime.taskgraph import CompiledGraph, DetailedTask, ReadyTracker
from repro.util.errors import SchedulerError

TaskCost = Callable[[DetailedTask], float]


@dataclass
class TaskTrace:
    dtask_id: int
    name: str
    rank: int
    ready: float
    start: float
    end: float

    @property
    def wait(self) -> float:
        """Time spent ready but waiting for the rank's executor."""
        return self.start - self.ready


@dataclass
class MsgFlow:
    """One simulated message delivery: who sent, who consumed, when.

    ``flow_id`` is ``"<msg_id>.<k>"`` — one flow per *waiter* of a
    (possibly broadcast) message id, so the exported ``s``/``f`` flow
    events pair 1:1 the way :func:`repro.perf.merge.validate_chrome_trace`
    requires and the analyzer can treat each delivery as its own edge.
    """

    flow_id: str
    msg_id: int
    src_dtask_id: int
    dst_dtask_id: int
    src_rank: int
    dst_rank: int
    depart: float
    arrive: float
    nbytes: int


@dataclass
class RankTimeline:
    rank: int
    busy: float = 0.0
    finish: float = 0.0
    tasks: int = 0

    def idle(self, makespan: float) -> float:
        return makespan - self.busy


@dataclass
class TraceReport:
    makespan: float
    traces: List[TaskTrace]
    ranks: Dict[int, RankTimeline]
    messages_sent: int
    message_bytes: int
    flows: List[MsgFlow] = field(default_factory=list)

    @property
    def total_busy(self) -> float:
        return sum(r.busy for r in self.ranks.values())

    @property
    def parallel_efficiency(self) -> float:
        """busy / (ranks x makespan): 1.0 = no idle time anywhere."""
        n = len(self.ranks)
        if n == 0 or self.makespan <= 0:
            return 1.0
        return self.total_busy / (n * self.makespan)

    def critical_rank(self) -> int:
        return max(self.ranks.values(), key=lambda r: r.finish).rank

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def to_chrome_trace_events(self, pid: int = 0) -> List[dict]:
        """The simulated timeline as Chrome trace-event dicts.

        Each rank becomes a thread row (``tid`` = rank, named via an
        ``M`` metadata event); each task trace becomes a complete
        (``"X"``) event with simulated-seconds scaled to microseconds,
        carrying its ready time and executor wait in ``args``; each
        simulated message delivery becomes an ``s``/``f`` flow pair
        (departure on the sender's row, arrival on the consumer's, the
        consuming task named in ``args.dtask_id``) so the viewer draws
        the message arrows and :mod:`repro.perf.analyze` recovers the
        cross-rank dependency edges. The result loads directly in
        chrome://tracing or Perfetto.
        """
        events: List[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
            for rank in sorted(self.ranks)
        ]
        for t in sorted(self.traces, key=lambda t: (t.start, t.rank)):
            events.append(
                {
                    "name": t.name,
                    "ph": "X",
                    "ts": t.start * 1e6,
                    "dur": (t.end - t.start) * 1e6,
                    "pid": pid,
                    "tid": t.rank,
                    "cat": "sim.task",
                    "args": {
                        "dtask_id": t.dtask_id,
                        "ready_us": t.ready * 1e6,
                        "wait_us": t.wait * 1e6,
                    },
                }
            )
        for fl in self.flows:
            events.append(
                {
                    "name": "msg",
                    "ph": "s",
                    "ts": fl.depart * 1e6,
                    "pid": pid,
                    "tid": fl.src_rank,
                    "cat": "sim.flow",
                    "id": fl.flow_id,
                    "args": {"dtask_id": fl.src_dtask_id, "nbytes": fl.nbytes},
                }
            )
            events.append(
                {
                    "name": "msg",
                    "ph": "f",
                    "bp": "e",
                    "ts": fl.arrive * 1e6,
                    "pid": pid,
                    "tid": fl.dst_rank,
                    "cat": "sim.flow",
                    "id": fl.flow_id,
                    "args": {"dtask_id": fl.dst_dtask_id, "nbytes": fl.nbytes},
                }
            )
        return events

    def write_chrome_trace(self, path) -> None:
        """Write the timeline as a chrome://tracing-loadable JSON file."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_chrome_trace_events()))


class TaskGraphTraceSimulator:
    """Event-driven execution of a compiled graph on modelled hardware.

    One non-preemptive executor per rank (the per-node GPU or the
    task-serial core — parallel intra-node execution can be modelled by
    dividing task costs). Messages leave when their producing task
    completes and arrive after the network model's point-to-point time;
    a task starts when its internal dependencies have completed, its
    messages have arrived, and its rank's executor frees up.
    """

    def __init__(self, network: Optional[NetworkModel] = None) -> None:
        self.network = network if network is not None else GEMINI

    def simulate(self, graph: CompiledGraph, task_cost: TaskCost) -> TraceReport:
        by_id = {t.dtask_id: t for t in graph.detailed_tasks}
        tracker = ReadyTracker(graph.detailed_tasks)
        #: latest enabling event (dependency end, message arrival) per task
        enable_time = {tid: 0.0 for tid in by_id}
        outgoing: Dict[int, List] = {}
        for msg in graph.messages:
            outgoing.setdefault(msg.src_dtask_id, []).append(msg)

        rank_free = {t.rank: 0.0 for t in graph.detailed_tasks}
        ready_heap: List[Tuple[float, int]] = []  # (ready_time, dtask_id)
        traces: List[TaskTrace] = []
        flows: List[MsgFlow] = []
        ranks = {r: RankTimeline(rank=r) for r in rank_free}
        msg_count = 0
        msg_bytes = 0

        def enable(waiters, when: float, released) -> None:
            for tid in waiters:
                enable_time[tid] = max(enable_time[tid], when)
            for tid in released:
                heapq.heappush(ready_heap, (enable_time[tid], tid))

        enable((), 0.0, tracker.start())
        while ready_heap:
            ready, tid = heapq.heappop(ready_heap)
            dt = by_id[tid]
            cost = float(task_cost(dt))
            if cost < 0:
                raise SchedulerError(f"negative cost for {dt}")
            start = max(ready, rank_free[dt.rank])
            end = start + cost
            rank_free[dt.rank] = end
            tl = ranks[dt.rank]
            tl.busy += cost
            tl.finish = max(tl.finish, end)
            tl.tasks += 1
            traces.append(
                TaskTrace(tid, dt.task.name, dt.rank, ready, start, end)
            )

            enable(dt.dependents, end, tracker.task_done(tid))
            for msg in outgoing.get(tid, ()):
                arrival = end + self.network.ptp_time(msg.nbytes)
                msg_count += 1
                msg_bytes += msg.nbytes
                waiters = tracker.waiters(msg.msg_id)
                enable(waiters, arrival, tracker.message_arrived(msg.msg_id))
                for k, waiter in enumerate(waiters):
                    flows.append(
                        MsgFlow(
                            flow_id=f"{msg.msg_id}.{k}",
                            msg_id=msg.msg_id,
                            src_dtask_id=tid,
                            dst_dtask_id=waiter,
                            src_rank=dt.rank,
                            dst_rank=by_id[waiter].rank,
                            depart=end,
                            arrive=arrival,
                            nbytes=msg.nbytes,
                        )
                    )

        if tracker.remaining:
            raise SchedulerError(
                f"trace simulation stalled: {tracker.remaining} tasks never ready "
                f"(cyclic or unsatisfied message dependencies)"
            )
        makespan = max((t.end for t in traces), default=0.0)
        return TraceReport(
            makespan=makespan,
            traces=traces,
            ranks=ranks,
            messages_sent=msg_count,
            message_bytes=msg_bytes,
            flows=flows,
        )


def rmcrt_task_cost(
    problem,
    patch_size: int,
    gpu=None,
    ray_model=None,
) -> TaskCost:
    """A cost function for the 3-task RMCRT pipeline, priced on the
    K20X model: trace tasks pay the occupancy-dependent kernel, the
    property init and coarsen tasks pay bandwidth-bound field sweeps."""
    from repro.dessim.costmodel import RayWorkModel
    from repro.machine.gpu import K20X

    gpu = gpu if gpu is not None else K20X
    ray_model = ray_model if ray_model is not None else RayWorkModel()
    steps = ray_model.steps_per_ray(problem, patch_size)
    cells = problem.cells_per_patch(patch_size)
    kernel = gpu.kernel_time(cells, problem.rays_per_cell, steps)
    sweep_rate = gpu.spec.node_memory_bandwidth / 8.0  # cells/s, host side

    def cost(dt: DetailedTask) -> float:
        if dt.task.name.endswith("trace"):
            return kernel
        return 3.0 * dt.patch.num_cells / sweep_rate  # three property arrays

    return cost
