"""Fleet membership, death detection, and zero-loss re-homing.

The supervisor owns the shard processes the fabric spawned and the
invariant the whole subsystem exists for: **an accepted request is
never lost**. A shard can die at any point of its pipeline, and each
point leaves a different durable trace:

==========================================  =============================
request state at the moment of SIGKILL      durable trace to recover from
==========================================  =============================
routed, unclaimed                           ``inbox/<ticket>.ups``
claimed, not yet submitted                  ``claimed/<id>/<ticket>.ups``
submitted, journaled, unsolved              claimed file **and** journal
solved, result published                    ``outbox`` (nothing to do)
==========================================  =============================

Because the serve loop keeps the claimed file until the result is
published, the claimed directory covers every accepted-but-unanswered
request; re-homing is therefore *move files, spawn process*:

* survivors exist → sweep the dead shard's claims back into its inbox,
  rename its inbox files into a survivor's inbox (HRW failover order,
  so every observer picks the same survivor), move its journal entries
  into the survivor's journal (warm-restart replay), then respawn a
  replacement under the **same shard id** — HRW placement is stable,
  so the replacement inherits its predecessor's keyspace and its
  still-warm on-disk cache;
* no survivors → respawn in place; the serve loop's own warm-restart
  path (release claims, replay journal) does the rest.

Death is detected two ways: the process object we own has exited, or
the shard's ``status.json`` heartbeat has gone stale (covers a wedged
process that is alive but not serving).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.fabric.hashring import rendezvous_rank
from repro.fabric.shard import ShardHandle
from repro.perf.metrics import get_metrics
from repro.service.spool import forward_results, move_requests, release_claims
from repro.util.errors import ReproError


class Fleet:
    """The live shard set: ordered membership + id allocation."""

    def __init__(self) -> None:
        self.shards: Dict[str, ShardHandle] = {}
        self._next_index = 0

    def add(self, shard: ShardHandle) -> ShardHandle:
        if shard.shard_id in self.shards:
            raise ReproError(f"duplicate shard id {shard.shard_id!r}")
        self.shards[shard.shard_id] = shard
        return shard

    def remove(self, shard_id: str) -> Optional[ShardHandle]:
        return self.shards.pop(shard_id, None)

    def next_id(self) -> str:
        """A fresh, never-reused shard id (``shard0``, ``shard1``, …)."""
        while True:
            candidate = f"shard{self._next_index}"
            self._next_index += 1
            if candidate not in self.shards:
                return candidate

    def routable(self) -> List[str]:
        """Ids the router may place new work on (draining excluded)."""
        return sorted(s.shard_id for s in self.shards.values() if not s.draining)

    def backlogs(self) -> Dict[str, int]:
        return {s.shard_id: s.backlog() for s in self.shards.values()
                if not s.draining}

    def __len__(self) -> int:
        return len(self.shards)


class FleetSupervisor:
    """Spawn, watch, recover, and resize the shard fleet."""

    def __init__(
        self,
        fleet: Fleet,
        shards_root,
        heartbeat_timeout_s: float = 10.0,
        workers_per_shard: int = 1,
        max_queue: int = 256,
        tsdb_interval_s: float = 0.5,
        front_outbox=None,
        event_log=None,
    ) -> None:
        self.fleet = fleet
        self.shards_root = Path(shards_root)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.workers_per_shard = int(workers_per_shard)
        self.max_queue = int(max_queue)
        self.tsdb_interval_s = float(tsdb_interval_s)
        #: where a reaped shard's already-finished results get relayed
        #: (a drained shard leaves the fleet, so the router would never
        #: scan its outbox again)
        self.front_outbox = Path(front_outbox) if front_outbox else None
        #: optional :class:`repro.fabric.events.EventLog` — the durable
        #: record the root-cause doctor correlates with detections
        self.event_log = event_log
        self.recoveries: List[dict] = []

    def _emit(self, kind: str, **data) -> None:
        if self.event_log is not None:
            self.event_log.emit(kind, **data)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def build_shard(self, shard_id: str) -> ShardHandle:
        return ShardHandle(
            shard_id,
            self.shards_root / shard_id,
            workers=self.workers_per_shard,
            max_queue=self.max_queue,
            tsdb_interval_s=self.tsdb_interval_s,
        )

    def grow(self) -> ShardHandle:
        """Add one shard and start serving on it."""
        shard = self.fleet.add(self.build_shard(self.fleet.next_id()))
        shard.spawn()
        get_metrics().counter("fabric.shards_grown").inc()
        self._emit("spawn", shard=shard.shard_id,
                   pid=shard.proc.pid if shard.proc else None)
        return shard

    def retire(self, shard_id: str) -> None:
        """Begin a graceful drain: the shard stops claiming once its
        stop file appears, finishes outstanding work, and exits; the
        router stops placing new work on it immediately."""
        shard = self.fleet.shards.get(shard_id)
        if shard is None:
            return
        shard.draining = True
        shard.request_stop()
        get_metrics().counter("fabric.shards_retired").inc()
        self._emit("retire", shard=shard_id)

    def reap_drained(self) -> List[str]:
        """Remove draining shards whose process has exited. Their
        leftover inbox files (work that raced the drain) re-home
        through the standard recovery path first."""
        reaped = []
        for shard_id in list(self.fleet.shards):
            shard = self.fleet.shards[shard_id]
            if not shard.draining or not shard.process_dead():
                continue
            self._rehome(shard, reason="drained")
            self.fleet.remove(shard_id)
            reaped.append(shard_id)
            self._emit("reap", shard=shard_id)
        return reaped

    # ------------------------------------------------------------------
    # death detection + recovery
    # ------------------------------------------------------------------
    def dead_shards(self, now: Optional[float] = None) -> List[str]:
        now = time.time() if now is None else now
        dead = []
        for shard in self.fleet.shards.values():
            if shard.draining:
                continue  # an exiting drainer is not a casualty
            if shard.process_dead():
                dead.append(shard.shard_id)
                continue
            age = shard.heartbeat_age(now)
            if shard.spawned_at is not None:
                # a fresh spawn proves recency even before the new
                # process overwrites its predecessor's stale status.json
                age = min(age, now - shard.spawned_at) if age is not None else None
            if age is not None and age > self.heartbeat_timeout_s:
                dead.append(shard.shard_id)
        return dead

    def check_once(self, now: Optional[float] = None) -> List[dict]:
        """One supervision pass: find casualties, re-home their work,
        respawn replacements. Returns this pass's recovery records."""
        records = []
        for shard_id in self.dead_shards(now):
            records.append(self.recover(shard_id))
        self.reap_drained()
        return records

    def recover(self, shard_id: str) -> dict:
        """Re-home a dead shard's accepted work, then respawn it."""
        shard = self.fleet.shards[shard_id]
        reason = ("process-exit" if shard.process_dead()
                  else "heartbeat-stale")
        self._emit("death", shard=shard_id, reason=reason,
                   restarts=shard.restarts)
        shard.kill()  # a stale-heartbeat zombie must not wake up later
        shard.wait(timeout=5.0)
        record = self._rehome(shard, reason="died")
        self._emit(
            "rehome", shard=shard_id, target=record["target"],
            claims_released=record["claims_released"],
            requests_rehomed=record["requests_rehomed"],
            journal_rehomed=record["journal_rehomed"],
        )
        # respawn under the same id: HRW placement is per-id, so the
        # replacement owns exactly the dead shard's keyspace and its
        # on-disk cache directory is still warm
        shard.spawn()
        record["respawned"] = True
        self._emit("respawn", shard=shard_id,
                   pid=shard.proc.pid if shard.proc else None,
                   restarts=shard.restarts)
        get_metrics().counter("fabric.shards_recovered").inc()
        self.recoveries.append(record)
        return record

    def _rehome(self, shard: ShardHandle, reason: str) -> dict:
        """Move every durable trace of unfinished work somewhere it
        will be served: claims → own inbox → survivor inbox, journal →
        survivor journal. With no survivors the files stay put for the
        respawned shard's own warm-restart sweep."""
        paths = shard.paths
        if self.front_outbox is not None:
            forward_results(paths.outbox, self.front_outbox)
        released = 0
        for claim_dir in paths.claim_dirs():
            released += release_claims(claim_dir, paths.inbox)
        survivors = [
            s for s in self.fleet.routable() if s != shard.shard_id
        ]
        moved = 0
        journal_moved = 0
        target = None
        if survivors:
            # HRW failover: every observer independently picks the same
            # survivor for this shard's keyspace
            target = rendezvous_rank(shard.shard_id, survivors)[0]
            dst = self.fleet.shards[target]
            moved = len(move_requests(paths.inbox, dst.paths.inbox))
            dst.paths.journal.mkdir(parents=True, exist_ok=True)
            for entry in paths.journal_entries():
                try:
                    entry.rename(dst.paths.journal / entry.name)
                except OSError:
                    continue
                journal_moved += 1
        record = {
            "shard": shard.shard_id,
            "reason": reason,
            "claims_released": released,
            "requests_rehomed": moved,
            "journal_rehomed": journal_moved,
            "target": target,
            "respawned": False,
            "t": time.time(),
        }
        return record

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def scale_to(self, desired: int) -> None:
        """Grow or drain toward ``desired`` routable shards."""
        desired = max(0, int(desired))
        while len(self.fleet.routable()) < desired:
            self.grow()
        extra = len(self.fleet.routable()) - desired
        if extra > 0:
            # retire the least-loaded shards: their drains finish fastest
            by_load = sorted(
                self.fleet.backlogs().items(), key=lambda kv: (kv[1], kv[0])
            )
            for shard_id, _ in by_load[:extra]:
                self.retire(shard_id)

    def shutdown(self, timeout_s: float = 15.0) -> None:
        """Stop every shard: graceful drain first, SIGKILL stragglers."""
        for shard in self.fleet.shards.values():
            shard.request_stop()
        deadline = time.monotonic() + timeout_s
        for shard in self.fleet.shards.values():
            remaining = max(0.1, deadline - time.monotonic())
            if shard.wait(timeout=remaining) is None:
                shard.kill()
                shard.wait(timeout=5.0)
