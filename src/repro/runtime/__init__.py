"""The Uintah-style asynchronous task runtime: simulated MPI, task
declarations, task-graph compilation, and the serial / threaded /
distributed / GPU schedulers."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".mpi": ["ANY_SOURCE", "ANY_TAG", "Communicator", "SimMPI"],
    ".task": ["Computes", "Requires", "Task", "TaskContext"],
    ".taskgraph": ["CompiledGraph", "DetailedTask", "GhostMessage", "ReadyTracker",
                   "TaskGraph"],
    ".scheduler": ["DistributedScheduler", "RankStats", "SerialScheduler",
                   "ThreadedScheduler", "gather_cc"],
    ".gpu_scheduler": ["GPUScheduler", "GPUSchedulerStats", "GPUTaskContext"],
    ".controller": ["SimulationController", "TimestepReport"],
    ".multigpu": ["MultiGPUScheduler"],
})
