"""Discrete-event Titan cluster simulator and the RMCRT cost model —
the machinery that regenerates the paper's Table I and Figures 1-3."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ["EventSimulator", "SlotResource"],
    ".costmodel": ["BYTES_PER_VAR", "NUM_PROPERTY_VARS", "CommStats", "LARGE",
                   "MEDIUM", "PoolTimingModel", "RMCRTProblem", "RayWorkModel",
                   "multi_level_comm_per_rank", "single_level_comm_per_rank"],
    ".cluster": ["ClusterSimulator", "ScalingSeries", "SimOptions", "StrongScalingStudy",
                 "TimestepBreakdown"],
    ".tracesim": ["MsgFlow", "TaskGraphTraceSimulator", "TaskTrace", "TraceReport",
                  "rmcrt_task_cost"],
})
