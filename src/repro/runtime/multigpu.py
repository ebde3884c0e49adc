"""Multi-GPU node execution.

Section I's stated requirement: "computational frameworks like Uintah
[must] leverage an arbitrary number of on-node GPUs, while
simultaneously utilizing thousands of GPUs within a single simulation."
Titan had one K20X per node, but Summit-class nodes carry several
devices; this scheduler runs one node's task graph across N GPU
DataWarehouses, assigning device tasks to devices by a load-aware
policy while each device keeps its own level database (the coarse
properties are replicated per device — one copy each, never per task).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dw.gpudw import GPUDataWarehouse
from repro.runtime.gpu_scheduler import GPUScheduler, device_loop
from repro.runtime.scheduler import RankLoop, SerialScheduler
from repro.runtime.taskgraph import CompiledGraph
from repro.util.errors import SchedulerError


class MultiGPUScheduler(SerialScheduler):
    """Execute one rank's graph across several on-node devices.

    Device tasks are partitioned across GPUs patch-wise (balanced by
    patch cell count, the same cost heuristic the load balancer uses
    across ranks); host tasks run once on the host path. Each device's
    stage pipeline is a full :class:`GPUScheduler`, so per-device
    in-flight bounds, stream assignment, and level-DB sharing all apply
    per device.
    """

    name = "multigpu"

    def __init__(
        self,
        num_gpus: int = 2,
        gpus: Optional[List[GPUDataWarehouse]] = None,
        num_streams: int = 4,
        max_in_flight: int = 8,
    ) -> None:
        if gpus is not None:
            if not gpus:
                raise SchedulerError("need at least one GPU")
            self.gpus = list(gpus)
        else:
            if num_gpus < 1:
                raise SchedulerError("num_gpus must be >= 1")
            self.gpus = [GPUDataWarehouse(device_id=i) for i in range(num_gpus)]
        super().__init__()
        self.engines = [
            GPUScheduler(gpu=g, num_streams=num_streams, max_in_flight=max_in_flight)
            for g in self.gpus
        ]
        #: patch_id -> device index, filled at execute time
        self.device_assignment: Dict[int, int] = {}

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def _assign_devices(self, graph: CompiledGraph) -> Dict[int, int]:
        """Balanced greedy assignment of device-task patches to GPUs."""
        device_patches = sorted(
            {t.patch for t in graph.detailed_tasks if t.task.device},
            key=lambda p: (-p.num_cells, p.patch_id),
        )
        load = [0] * self.num_gpus
        assignment: Dict[int, int] = {}
        for patch in device_patches:
            dev = min(range(self.num_gpus), key=lambda d: load[d])
            assignment[patch.patch_id] = dev
            load[dev] += patch.num_cells
        return assignment

    def _loop(self, graph, old_dw, new_dw, tracer) -> RankLoop:
        self.device_assignment = self._assign_devices(graph)

        def engine_of(dt):
            if dt.task.device:
                return self.engines[self.device_assignment[dt.patch.patch_id]]
            return None  # host tasks run once, on no device's account

        return device_loop(graph, engine_of, old_dw, new_dw, tracer)

    def stats_summary(self) -> List[Dict[str, int]]:
        """Per-device upload/residency accounting."""
        return [
            {
                "device": g.device_id,
                "h2d_bytes": g.stats.h2d_bytes,
                "d2h_bytes": g.stats.d2h_bytes,
                "level_db_entries": g.resident_summary()["level_db_entries"],
                "tasks": e.stats.tasks_executed,
            }
            for g, e in zip(self.gpus, self.engines)
        ]
