"""The Uintah-style asynchronous task runtime: simulated MPI, task
declarations, task-graph compilation, and the serial / threaded /
distributed / GPU schedulers."""

from repro.runtime.mpi import ANY_SOURCE, ANY_TAG, Communicator, SimMPI
from repro.runtime.task import Computes, Requires, Task, TaskContext
from repro.runtime.taskgraph import (
    CompiledGraph,
    DetailedTask,
    GhostMessage,
    ReadyTracker,
    TaskGraph,
)
from repro.runtime.scheduler import (
    DistributedScheduler,
    RankStats,
    SerialScheduler,
    ThreadedScheduler,
    gather_cc,
)
from repro.runtime.gpu_scheduler import GPUScheduler, GPUSchedulerStats, GPUTaskContext
from repro.runtime.controller import SimulationController, TimestepReport
from repro.runtime.multigpu import MultiGPUScheduler

__all__ = [
    "SimulationController",
    "TimestepReport",
    "MultiGPUScheduler",
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "SimMPI",
    "Computes",
    "Requires",
    "Task",
    "TaskContext",
    "CompiledGraph",
    "DetailedTask",
    "GhostMessage",
    "ReadyTracker",
    "TaskGraph",
    "DistributedScheduler",
    "RankStats",
    "SerialScheduler",
    "ThreadedScheduler",
    "gather_cc",
    "GPUScheduler",
    "GPUSchedulerStats",
    "GPUTaskContext",
]
