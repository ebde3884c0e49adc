"""The Titan cluster simulator: one RMCRT radiation timestep, end to
end, for any GPU count — the engine behind the Figure 1/2/3 and
Table I reproductions.

Per timestep and rank, the simulator prices:

1. **communication** — coarse-level gather + fine halo exchange over
   the Gemini model, plus the *local* message-processing time through
   the selected request pool (Section IV.A),
2. **the node GPU pipeline** — per-patch H2D of the fine ROI, the
   shared (or, in the legacy ablation, per-task) coarse level-DB
   upload, the traversal kernel at patch-size-dependent occupancy, and
   D2H of del.q — scheduled onto the node's two copy engines and the
   GPU with :class:`~repro.dessim.engine.SlotResource` list scheduling
   so over-decomposition genuinely overlaps copies with kernels.

All ranks are statistically identical under the regular decomposition,
so the timestep time is the worst rank's: the one holding
ceil(patches/R) patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dessim.costmodel import (
    PoolTimingModel,
    RayWorkModel,
    RMCRTProblem,
    multi_level_comm_per_rank,
)
from repro.dessim.engine import SlotResource
from repro.machine.cpu import OPTERON_6274
from repro.machine.gpu import GPUModel, K20X
from repro.machine.network import GEMINI, NetworkModel
from repro.machine.titan import TITAN, TitanSpec
from repro.util.errors import ReproError


@dataclass
class SimOptions:
    pool: str = "waitfree"            #: 'waitfree' | 'locked'
    device: str = "gpu"               #: 'gpu' (K20X pipeline) | 'cpu' (16 cores)
    threads: int = 16
    use_level_db: bool = True
    max_in_flight: int = 8            #: patch tasks resident on the GPU
    offnode_halo_fraction: float = 0.5
    overlap_comm_compute: float = 0.3  #: fraction of network time hidden
    #: device memory held by everything that is not this radiation
    #: solve: the CFD state, DataWarehouse variable versions, runtime
    #: buffers. The paper ran "at the edge of the nodal memory
    #: footprint"; this is what made redundant coarse-level copies
    #: fatal on a 6 GB K20X.
    base_device_bytes: int = int(3.5 * 1024 ** 3)


@dataclass
class TimestepBreakdown:
    num_gpus: int
    active_gpus: int
    patches_per_gpu: int
    network_time: float
    local_comm_time: float
    h2d_bytes: int
    pipeline_time: float
    kernel_time: float
    total_time: float
    gpu_memory_bytes: int
    gpu_memory_ok: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_gpus} GPUs: total {self.total_time:.3f}s "
            f"(net {self.network_time:.3f}, local {self.local_comm_time:.3f}, "
            f"pipeline {self.pipeline_time:.3f})"
        )


class ClusterSimulator:
    """Prices RMCRT timesteps on a Titan-like machine."""

    def __init__(
        self,
        spec: TitanSpec = TITAN,
        network: Optional[NetworkModel] = None,
        gpu: Optional[GPUModel] = None,
        pool_model: Optional[PoolTimingModel] = None,
        ray_model: Optional[RayWorkModel] = None,
    ) -> None:
        self.spec = spec
        self.network = network if network is not None else GEMINI
        self.gpu = gpu if gpu is not None else K20X
        self.cpu = OPTERON_6274
        self.pool_model = pool_model if pool_model is not None else PoolTimingModel()
        self.ray_model = ray_model if ray_model is not None else RayWorkModel()

    # ------------------------------------------------------------------
    def node_pipeline(
        self,
        problem: RMCRTProblem,
        patch_size: int,
        patches_on_node: int,
        options: SimOptions,
    ) -> Dict[str, float]:
        """List-schedule one node's patch tasks onto its copy engines
        and GPU; returns makespan, pure-kernel sum, H2D bytes and the
        device memory high-water estimate."""
        if patches_on_node < 1:
            return {"makespan": 0.0, "kernel": 0.0, "h2d_bytes": 0, "memory": 0}
        h2d = SlotResource(1, "h2d-engine")
        d2h = SlotResource(1, "d2h-engine")
        gpu = SlotResource(1, "gpu")

        roi_bytes = problem.patch_roi_bytes(patch_size)
        divq_bytes = problem.patch_divq_bytes(patch_size)
        level_bytes = problem.coarse_level_bytes
        steps = self.ray_model.steps_per_ray(problem, patch_size)
        cells = problem.cells_per_patch(patch_size)
        kernel = self.gpu.kernel_time(cells, problem.rays_per_cell, steps)

        # coarse level: one shared upload with the level DB, else one per task
        level_ready = 0.0
        kernel_sum = 0.0
        if options.use_level_db:
            _, level_ready = h2d.request(0.0, self.gpu.h2d_time(level_bytes))
            h2d_bytes = level_bytes + patches_on_node * roi_bytes
        else:
            h2d_bytes = patches_on_node * (level_bytes + roi_bytes)

        in_flight_release: List[float] = []
        for p in range(patches_on_node):
            # bounded residency: wait for an earlier task's D2H if the
            # device already holds max_in_flight patch working sets
            gate = 0.0
            if len(in_flight_release) >= options.max_in_flight:
                gate = in_flight_release[p - options.max_in_flight]
            per_task_level = 0.0 if options.use_level_db else self.gpu.h2d_time(level_bytes)
            _, up_done = h2d.request(gate, self.gpu.h2d_time(roi_bytes) + per_task_level)
            ready = max(up_done, level_ready)
            _, k_done = gpu.request(ready, kernel)
            kernel_sum += kernel
            _, down_done = d2h.request(k_done, self.gpu.d2h_time(divq_bytes))
            in_flight_release.append(down_done)

        resident = min(patches_on_node, options.max_in_flight)
        memory = options.base_device_bytes
        memory += roi_bytes * resident + divq_bytes * resident
        memory += level_bytes if options.use_level_db else level_bytes * resident
        return {
            "makespan": max(r.makespan for r in (h2d, d2h, gpu)),
            "kernel": kernel_sum,
            "h2d_bytes": h2d_bytes,
            "memory": memory,
        }

    def node_pipeline_cpu(
        self,
        problem: RMCRTProblem,
        patch_size: int,
        patches_on_node: int,
        options: SimOptions,
    ) -> Dict[str, float]:
        """The [5]-style CPU configuration: patch tasks list-scheduled
        across the node's cores, no PCIe stage, host memory only."""
        if patches_on_node < 1:
            return {"makespan": 0.0, "kernel": 0.0, "h2d_bytes": 0, "memory": 0}
        cores = SlotResource(self.cpu.cores, "cores")
        steps = self.ray_model.steps_per_ray(problem, patch_size)
        cells = problem.cells_per_patch(patch_size)
        task = self.cpu.task_time(cells, problem.rays_per_cell, steps)
        for _ in range(patches_on_node):
            cores.request(0.0, task)
        roi_bytes = problem.patch_roi_bytes(patch_size)
        memory = patches_on_node * roi_bytes + problem.coarse_level_bytes
        return {
            "makespan": cores.makespan,
            "kernel": task * patches_on_node,
            "h2d_bytes": 0,
            "memory": memory,
        }

    # ------------------------------------------------------------------
    def simulate_timestep(
        self,
        problem: RMCRTProblem,
        patch_size: int,
        num_gpus: int,
        options: Optional[SimOptions] = None,
    ) -> TimestepBreakdown:
        options = options if options is not None else SimOptions()
        max_gpus = self.spec.num_nodes * self.spec.gpus_per_node
        if num_gpus < 1 or num_gpus > max_gpus:
            raise ReproError(
                f"num_gpus must be in [1, {max_gpus}], got {num_gpus}"
            )
        patches = problem.num_patches(patch_size)
        active = min(num_gpus, patches)
        ppg = math.ceil(patches / active)

        comm = multi_level_comm_per_rank(
            problem, patch_size, active, options.offnode_halo_fraction
        )
        net_time = (
            comm.total_messages * self.network.latency_s
            + comm.total_bytes / self.network.effective_bandwidth
        )
        local_time = self.pool_model.local_comm_time(
            comm.total_messages, options.pool, options.threads
        )

        if options.device == "gpu":
            pipe = self.node_pipeline(problem, patch_size, ppg, options)
            memory_cap = self.spec.gpu_memory_bytes
        elif options.device == "cpu":
            pipe = self.node_pipeline_cpu(problem, patch_size, ppg, options)
            memory_cap = self.spec.host_memory_bytes
        else:
            raise ReproError(f"unknown device {options.device!r}")
        exposed_net = net_time * (1.0 - options.overlap_comm_compute)
        total = exposed_net + local_time + pipe["makespan"]
        return TimestepBreakdown(
            num_gpus=num_gpus,
            active_gpus=active,
            patches_per_gpu=ppg,
            network_time=net_time,
            local_comm_time=local_time,
            h2d_bytes=int(pipe["h2d_bytes"]),
            pipeline_time=pipe["makespan"],
            kernel_time=pipe["kernel"],
            total_time=total,
            gpu_memory_bytes=int(pipe["memory"]),
            gpu_memory_ok=pipe["memory"] <= memory_cap,
        )


# ----------------------------------------------------------------------
# strong scaling studies (Figures 2 and 3)
# ----------------------------------------------------------------------
@dataclass
class ScalingSeries:
    patch_size: int
    gpu_counts: List[int]
    times: List[float]
    breakdowns: List[TimestepBreakdown] = field(default_factory=list)

    def efficiency(self, from_gpus: int, to_gpus: int) -> float:
        """Parallel efficiency per the paper's eq. (3), relative form:
        E = T(n0) * n0 / (n1 * T(n1))."""
        try:
            i = self.gpu_counts.index(from_gpus)
            j = self.gpu_counts.index(to_gpus)
        except ValueError:
            raise ReproError(
                f"gpu counts {from_gpus}/{to_gpus} not in series {self.gpu_counts}"
            ) from None
        return (self.times[i] * from_gpus) / (to_gpus * self.times[j])


class StrongScalingStudy:
    """Sweep GPU counts for several patch sizes on one problem."""

    def __init__(self, simulator: Optional[ClusterSimulator] = None) -> None:
        self.sim = simulator if simulator is not None else ClusterSimulator()

    def run(
        self,
        problem: RMCRTProblem,
        patch_sizes: List[int],
        gpu_counts: List[int],
        options: Optional[SimOptions] = None,
    ) -> Dict[int, ScalingSeries]:
        out: Dict[int, ScalingSeries] = {}
        for ps in patch_sizes:
            max_gpus = problem.num_patches(ps)
            counts = [g for g in gpu_counts if g <= max_gpus]
            series = ScalingSeries(patch_size=ps, gpu_counts=counts, times=[])
            for g in counts:
                b = self.sim.simulate_timestep(problem, ps, g, options)
                series.times.append(b.total_time)
                series.breakdowns.append(b)
            out[ps] = series
        return out
