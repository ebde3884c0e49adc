"""Checkpoint/restart, fault injection, and recovery orchestration.

At the paper's scale — 16384 GPUs for hours — node failure is an
operating condition, not an anomaly; production campaigns live on
checkpoint/restart. This package is the reproduction's resilience
layer:

* :mod:`repro.resilience.state` — :class:`SimulationState`, the
  checkpointable snapshot of a DataWarehouse generation plus timestep,
  RNG stream positions, and grid layout;
* :mod:`repro.resilience.checkpoint` — :class:`Checkpointer`,
  content-addressed incremental snapshots (SHA-256-named chunks,
  atomic publication, manifest integrity hashes, retention pruning);
* :mod:`repro.resilience.faultplan` — :class:`FaultPlan`, scripted and
  seeded-random failure injection (rank deaths, worker deaths, solve
  faults, checkpoint corruption);
* :mod:`repro.resilience.orchestrator` — :class:`RadiationCampaign`
  and :class:`RecoveryOrchestrator`, the kill-and-recover drill that
  proves restores are bit-identical and rank deaths are survivable via
  re-decomposition onto the survivors;
* :mod:`repro.resilience.cli` — ``python -m repro resilience
  [checkpoint|restore|drill]``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".state": ["CCEntry", "LevelEntry", "SimulationState", "capture_state",
               "grid_layout", "verify_layout"],
    ".checkpoint": ["Checkpointer"],
    ".faultplan": ["FaultEvent", "FaultPlan"],
    ".orchestrator": ["DrillReport", "RadiationCampaign", "RecoveryEvent",
                      "RecoveryOrchestrator"],
    "repro.util.errors": ["InjectedFault", "ResilienceError"],
})
