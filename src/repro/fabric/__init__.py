"""repro.fabric — the multi-shard service fabric.

One ``repro serve`` process is a single point of failure and a single
GIL; the fabric is the request plane that turns N of them into one
service (the ROADMAP's "millions of users" direction):

* :mod:`repro.fabric.hashring` — rendezvous (HRW) hashing, so scene →
  shard placement is stable under fleet resize and every shard's
  result cache + prepared scenes stay warm for *its* scenes;
* :mod:`repro.fabric.shard` — one shard's on-disk layout and process
  handle (spawn, heartbeat, queue depths, kill);
* :mod:`repro.fabric.router` — front-door routing of spool requests
  into shard inboxes by scene fingerprint, queue-depth-driven work
  stealing between shards, and result forwarding back to the client;
* :mod:`repro.fabric.supervisor` — fleet membership, heartbeat-based
  death detection, and zero-loss re-homing of a dead shard's inbox,
  claims, and journal;
* :mod:`repro.fabric.autoscaler` — SLO-burn + queue-depth-history
  driven fleet sizing over the tsdb substrate;
* :mod:`repro.fabric.fabric` — the single-threaded tick loop tying the
  pieces together, ``fabric_status.json`` aggregation, and the
  kill-one-shard drill;
* :mod:`repro.fabric.cli` — ``python -m repro fabric
  [up|route|status|down|drill]``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".autoscaler": ["Autoscaler", "AutoscalePolicy"],
    ".fabric": ["Fabric", "FabricConfig", "aggregate_status", "format_fleet",
                "run_drill"],
    ".hashring": ["rendezvous_rank", "rendezvous_shard"],
    ".router": ["Router"],
    ".shard": ["ShardHandle", "ShardPaths"],
    ".supervisor": ["Fleet", "FleetSupervisor"],
})
