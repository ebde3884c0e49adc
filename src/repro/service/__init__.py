"""Solve-as-a-service: batching, caching, sharded radiation serving.

The paper amortizes shared state over many consumers — one
device-resident coarse-level copy serving every patch task, one
wait-free request pool serving every thread. This package applies the
same move at the process boundary: radiation solves become a
*workload*, served by an inference-style stack instead of one UPS file
per process invocation.

* :mod:`repro.service.schema`  — ``SolveRequest`` / ``SolveResult`` /
  ``SolveHandle``, content-addressed by the UPS spec fingerprint;
* :mod:`repro.service.queue`   — bounded submission queue
  (backpressure at the front door);
* :mod:`repro.service.batcher` — micro-batcher coalescing the stream
  into per-scene batches;
* :mod:`repro.service.cache`   — two-tier (LRU + disk)
  content-addressed result cache;
* :mod:`repro.service.workers` — sharded worker pool with thread and
  process backends, retry-with-backoff, fault-plan aware dispatch;
* :mod:`repro.service.journal` — write-ahead request journal backing
  warm restarts (``recover_journal``);
* :mod:`repro.service.service` — :class:`RadiationService` +
  :class:`ServiceClient`;
* :mod:`repro.service.cli`     — the ``python -m repro serve`` /
  ``submit`` commands.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".batcher": ["Batch", "MicroBatcher"],
    ".cache": ["ResultCache"],
    ".journal": ["RequestJournal"],
    ".queue": ["SubmissionQueue"],
    ".schema": ["CachedSolve", "PendingSolve", "SolveHandle", "SolveRequest",
                "SolveResult"],
    ".service": ["RadiationService", "ServiceClient", "ServiceConfig"],
    ".workers": ["WorkerPool"],
})
