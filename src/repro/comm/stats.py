"""Request-pool operation counters shared by both pool designs.

The paper's message-leak bug class (Section IV.A) is invisible in
aggregate timings but obvious in operation counts: a healthy pool
retires every inserted request exactly once, and the wait-free design
trades a few extra slot scans and failed claim attempts for lock
freedom. Both pools accumulate these counts locally (plain integer
adds — nothing on the hot path touches a registry) and flush them into
a :class:`~repro.perf.metrics.MetricsRegistry` via
:meth:`PoolStatsMixin.publish_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PoolStats:
    #: slots/records examined while scanning for work
    slot_scans: int = 0
    #: CAS-style claim attempts that lost (try-lock failed, or a racy
    #: completion lost the finish race)
    claim_failures: int = 0
    #: requests fully processed and erased from the pool
    retired: int = 0
    #: process_ready() passes
    passes: int = 0
    #: capacity growth events
    grows: int = 0
    #: retired requests whose message carried a causal trace context
    #: (repro.perf.tracectx) — the pool's causal-coverage measure
    ctx_propagated: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))  # flat integer fields: asdict's deep copy buys nothing


class PoolStatsMixin:
    """Publishing surface for pools that keep a :class:`PoolStats`.

    ``publish_metrics`` is flush-style: it increments counters by the
    delta since the previous publish, so periodic publishing (e.g. once
    per rank loop) never double-counts.
    """

    stats: PoolStats
    ledger = None

    def publish_metrics(self, registry, **labels) -> None:
        snapshot = self.stats.as_dict()
        last = getattr(self, "_published_stats", None) or {}
        for name, value in snapshot.items():
            delta = value - last.get(name, 0)
            if delta:
                registry.counter(f"comm.pool.{name}", **labels).inc(delta)
        self._published_stats = snapshot
        if self.ledger is not None:
            registry.gauge("comm.pool.outstanding_buffers", **labels).set(
                self.ledger.outstanding
            )
            registry.gauge("comm.pool.outstanding_bytes", **labels).set(
                self.ledger.outstanding_bytes
            )
