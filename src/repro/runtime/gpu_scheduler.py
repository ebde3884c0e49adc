"""The GPU task scheduler: multi-stage queues over the GPU DataWarehouse.

Uintah's heterogeneous scheduler (paper Section II and ref [6]) moves
each device task through a pipeline — H2D copies for its requires,
kernel execution on a CUDA stream, D2H copies of its computes — with
multiple patches in flight so copies overlap kernels. This module
reproduces the *structure and accounting* of that pipeline: stage
queues, bounded in-flight residency, per-stream assignment, shared
level-database uploads, and exact PCIe byte counts. (Wall-clock overlap
modelling lives in :mod:`repro.dessim`, which prices these same counts
on the Titan machine model.)
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional

import numpy as np

from repro.dw.datawarehouse import DataWarehouse
from repro.dw.gpudw import GPUDataWarehouse
from repro.dw.label import VarKind, VarLabel
from repro.dw.variables import CCVariable
from repro.perf.metrics import MetricsRegistry
from repro.perf.tracer import SpanTracer
from repro.runtime.scheduler import RankLoop, SerialScheduler, observers, pick_fifo, run_task
from repro.runtime.task import TaskContext
from repro.runtime.taskgraph import CompiledGraph, DetailedTask
from repro.util.errors import DataWarehouseError, SchedulerError


class GPUTaskContext(TaskContext):
    """Task view with device-resident data access."""

    def __init__(self, *args, gpu: GPUDataWarehouse, dtask_id: int, stream_id: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.gpu = gpu
        self.dtask_id = dtask_id
        self.stream_id = stream_id

    def device_require(self, label: VarLabel) -> np.ndarray:
        """The staged device copy of a CC requires (patch + ghosts)."""
        return self.gpu.get_patch_var(label, self.patch.patch_id)

    def device_require_level(self, label: VarLabel) -> np.ndarray:
        decl = self._declared_requires(label)
        return self.gpu.get_level_var(label, decl.level_index, task_id=self.dtask_id)


@dataclass
class GPUSchedulerStats:
    tasks_executed: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    level_uploads: int = 0
    peak_resident_tasks: int = 0
    per_stream_tasks: Dict[int, int] = field(default_factory=dict)


class GPUScheduler(SerialScheduler):
    """Single-device executor with staged H2D / exec / D2H queues.

    ``max_in_flight`` bounds how many patch tasks may be resident on the
    device simultaneously (over-decomposition: more patches in flight
    hides copy latency, at the price of memory). Host tasks in the same
    graph run inline on the CPU path.
    """

    name = "gpu"

    def __init__(
        self,
        gpu: Optional[GPUDataWarehouse] = None,
        num_streams: int = 4,
        max_in_flight: int = 8,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_streams < 1 or max_in_flight < 1:
            raise SchedulerError("num_streams and max_in_flight must be >= 1")
        super().__init__(tracer, metrics)
        self.gpu = gpu if gpu is not None else GPUDataWarehouse()
        self.num_streams = int(num_streams)
        self.max_in_flight = int(max_in_flight)
        self.stats = GPUSchedulerStats()

    def publish_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Snapshot the pipeline counters into a metrics registry."""
        registry = registry if registry is not None else observers(None, self.metrics)[1]
        registry.gauge("gpu.tasks_executed").set(self.stats.tasks_executed)
        registry.gauge("gpu.h2d_bytes").set(self.stats.h2d_bytes)
        registry.gauge("gpu.d2h_bytes").set(self.stats.d2h_bytes)
        registry.gauge("gpu.level_uploads").set(self.stats.level_uploads)
        registry.gauge("gpu.peak_resident_tasks").set(self.stats.peak_resident_tasks)
        for stream, count in self.stats.per_stream_tasks.items():
            registry.gauge("gpu.stream_tasks", stream=stream).set(count)

    _publish = publish_metrics

    def _loop(self, graph, old_dw, new_dw, tracer) -> RankLoop:
        return device_loop(graph, lambda dt: self, old_dw, new_dw, tracer)

    def _stage_h2d(
        self,
        dt: DetailedTask,
        graph: CompiledGraph,
        old_dw: Optional[DataWarehouse],
        new_dw: DataWarehouse,
    ) -> None:
        level = graph.grid.level(dt.level_index)
        for req in dt.task.requires:
            src = old_dw if req.dw == "old" else new_dw
            if src is None:
                raise SchedulerError(
                    f"task {dt.task.name} reads old DW but none exists"
                )
            if req.label.kind is VarKind.PER_LEVEL:
                data = src.get_level(req.label, req.level_index)
                transfers_before = self.gpu.stats.h2d_transfers
                self.gpu.upload_level_var(
                    req.label, req.level_index, data, task_id=dt.dtask_id
                )
                if self.gpu.stats.h2d_transfers > transfers_before:
                    self.stats.level_uploads += 1
            elif req.label.kind is VarKind.CELL_CENTERED:
                region = dt.patch.box.grow(req.num_ghost)
                arr = src.get_region(req.label, level, region, default=0.0)
                self.gpu.upload_patch_var(
                    req.label, dt.patch.patch_id, CCVariable(region, arr)
                )
        self.stats.h2d_bytes = self.gpu.stats.h2d_bytes

    def _execute_device(
        self,
        dt: DetailedTask,
        stream: int,
        graph: CompiledGraph,
        old_dw: Optional[DataWarehouse],
        new_dw: DataWarehouse,
        tracer: SpanTracer,
    ) -> None:
        context = partial(
            GPUTaskContext, gpu=self.gpu, dtask_id=dt.dtask_id, stream_id=stream
        )
        run_task([dt], graph, old_dw, new_dw, tracer, context, cat="gpu.task", stream=stream)
        self.stats.tasks_executed += 1
        self.stats.per_stream_tasks[stream] = self.stats.per_stream_tasks.get(stream, 0) + 1

        # D2H: every computed CC variable comes back to the host
        for comp in dt.task.computes:
            if comp.label.kind is VarKind.CELL_CENTERED and new_dw.exists(
                comp.label, dt.patch.patch_id
            ):
                self.stats.d2h_bytes += new_dw.get(comp.label, dt.patch.patch_id).nbytes
                self.gpu.stats.d2h_bytes += new_dw.get(comp.label, dt.patch.patch_id).nbytes
                self.gpu.stats.d2h_transfers += 1

        # release this task's per-patch residency (keep the level DB)
        for req in dt.task.requires:
            if req.label.kind is VarKind.CELL_CENTERED:
                try:
                    self.gpu.release_patch_var(req.label, dt.patch.patch_id)
                except DataWarehouseError:
                    pass  # shared with another task instance; already gone
        self.gpu.release_task(dt.dtask_id)


def device_loop(
    graph: CompiledGraph,
    engine_of: Callable[[DetailedTask], Optional[GPUScheduler]],
    old_dw: Optional[DataWarehouse],
    new_dw: DataWarehouse,
    tracer: SpanTracer,
) -> RankLoop:
    """The rank loop with an H2D stage queue in front of execution.

    ``engine_of(dt)`` names the device pipeline that stages, runs and
    accounts for a task (``None``: a host task on no device's account).
    Only *ready* device tasks are staged, oldest first — a consumer's
    ghost region is never uploaded before its producers ran — and a
    device holds at most its ``max_in_flight`` staged tasks.
    """
    in_flight: deque = deque()  # device tasks staged but not yet run, oldest first
    next_stream: Dict[GPUScheduler, int] = defaultdict(int)

    def pick(ready):
        while ready and ready[0].task.device:
            dt, engine = ready[0], engine_of(ready[0])
            resident = sum(engine_of(t) is engine for t in in_flight)
            if resident >= engine.max_in_flight:
                break
            try:
                with tracer.span(
                    f"h2d:{dt.task.name}", cat="gpu.h2d", patch=dt.patch.patch_id
                ):
                    engine._stage_h2d(dt, graph, old_dw, new_dw)
            except DataWarehouseError:
                if not resident:
                    raise  # nothing to evict: genuinely over capacity
                break  # backpressure: run something first
            in_flight.append(ready.popleft())
            engine.stats.peak_resident_tasks = max(
                engine.stats.peak_resident_tasks, resident + 1
            )
        return in_flight.popleft() if in_flight else pick_fifo(ready)

    def launch(dts):
        (dt,) = dts  # staged and launched one task at a time: fuse=False
        engine = engine_of(dt)
        if dt.task.device:
            stream = next_stream[engine]  # round-robin, in launch order
            next_stream[engine] = (stream + 1) % engine.num_streams
            engine._execute_device(dt, stream, graph, old_dw, new_dw, tracer)
        else:
            run_task(dts, graph, old_dw, new_dw, tracer)
            if engine is not None:
                engine.stats.tasks_executed += 1

    return RankLoop(graph.detailed_tasks, launch, pick, fuse=False)
