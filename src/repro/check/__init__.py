"""Correctness tooling: lint, graph, races, leaks, fs, protocol.

Six analyzers, one finding format, one CLI (``python -m repro check``):

* :mod:`repro.check.lint` — repo-specific AST rules,
* :mod:`repro.check.graph` — static task-graph validation,
* :mod:`repro.check.races` — Eraser-style lockset + vector-clock race
  detection over the comm pools, scheduler, and service workers,
* :mod:`repro.check.leaks` — allocator double-free/use-after-retire/
  leak checking,
* :mod:`repro.check.fs` — crash-consistency analysis of the
  write-then-rename discipline (interprocedural filesystem-effect
  summaries over service/fabric/resilience/util),
* :mod:`repro.check.protocol` — explicit-state model checking of the
  spool claim/re-home protocol (exhaustive interleavings with crash
  points, minimal counterexample traces).

``repro check --list-rules`` enumerates every rule across all six.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".findings": ["CheckFinding", "CheckReport"],
    ".fs": ["check_paths as fs_check_paths", "check_source as fs_check_source",
            "run_fs_fixture"],
    ".graph": ["validate_compiled", "validate_taskgraph"],
    ".leaks": ["CheckedAllocator", "run_leak_fixture"],
    ".lint": ["lint_paths", "lint_source"],
    ".protocol": ["ProtocolResult", "SpoolModel", "check_model",
                  "run_protocol_fixture", "verify_protocol"],
    ".races": ["RaceDetector", "TrackedLock", "TrackedQueue", "drive_pool_contended",
               "instrument_comm_pool", "instrument_datawarehouse",
               "instrument_worker_pool", "patch_locks"],
})
