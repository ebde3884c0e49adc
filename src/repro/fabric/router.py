"""The fabric's request plane: routing, work stealing, result relay.

The fabric root is itself a spool — clients keep using ``repro submit
--spool ROOT`` unchanged. The router is what moves requests onward:

* :meth:`Router.route_once` parses each front-inbox request, takes the
  **scene fingerprint** (grid geometry only — the result-cache and
  prepared-scene key), and renames the file into the HRW-chosen
  shard's inbox. Same scene, same shard, every time, across fleet
  resizes — that is what keeps each shard's cache hit-rate at
  single-process levels.
* :meth:`Router.steal_once` compares shard backlogs and re-routes
  *unclaimed* inbox files from the most loaded shard to the least.
  Affinity is a preference, latency is the promise: a steal trades a
  possible cache hit for immediate service. Renames race fairly with
  the victim shard's own claims, so a request is never duplicated.
* :meth:`Router.collect_once` relays finished results from shard
  outboxes back to the front outbox the submitter is polling.

Everything is single-threaded and idempotent per tick; crash-restart
of the router re-discovers all state from the directories.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.fabric.hashring import rendezvous_shard
from repro.perf import tracectx
from repro.perf.metrics import get_metrics
from repro.perf.tracer import get_tracer
from repro.service.spool import (
    extract_ctx,
    forward_results,
    inbox_bell,
    move_requests,
    ring,
    write_result,
)
from repro.ups import parse_ups, scene_fingerprint
from repro.util.errors import ReproError


class Router:
    """Scene-affinity request routing over a fleet of shard spools."""

    def __init__(self, root, fleet, event_log=None) -> None:
        self.root = Path(root)
        self.inbox = self.root / "inbox"
        self.outbox = self.root / "outbox"
        self.fleet = fleet
        #: optional :class:`repro.fabric.events.EventLog` for steals
        self.event_log = event_log
        self.routed = 0
        self.stolen = 0
        self.collected = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, text: str) -> str:
        """The shard id that owns this request's scene."""
        spec = parse_ups(text)
        return rendezvous_shard(scene_fingerprint(spec), self.fleet.routable())

    def route_once(self) -> int:
        """Move every front-inbox request into its home shard's inbox.

        A request that fails to parse is answered directly with an
        error result — shipping it to a shard would only defer the
        same rejection.
        """
        metrics = get_metrics()
        moved = 0
        if not self.inbox.is_dir() or not self.fleet.routable():
            return moved
        for path in sorted(self.inbox.glob("*.ups")):
            try:
                raw = path.read_text()
            except OSError:
                continue  # submitter still writing, or a racing router
            body, ctx = extract_ctx(raw)
            try:
                shard_id = self.place(body)
            except (ReproError, OSError) as exc:
                # ReproError: malformed UPS; OSError: non-XML body that
                # parse_ups took for a (nonexistent) file path
                self.outbox.mkdir(parents=True, exist_ok=True)
                write_result(self.outbox, path.stem, error=str(exc))
                try:
                    path.unlink()
                except OSError:
                    pass
                self.rejected += 1
                metrics.counter("fabric.rejected").inc()
                continue
            shard = self.fleet.shards[shard_id]
            shard.paths.inbox.mkdir(parents=True, exist_ok=True)
            try:
                path.rename(shard.paths.inbox / path.name)
            except OSError:
                continue
            ring(inbox_bell(shard.paths.inbox))
            moved += 1
            metrics.counter("fabric.routed", shard=shard_id).inc()
            with tracectx.use(ctx):
                get_tracer().instant(
                    "fabric.route", cat="fabric",
                    **tracectx.stamp({"ticket": path.stem, "shard": shard_id}),
                )
        self.routed += moved
        return moved

    # ------------------------------------------------------------------
    # work stealing
    # ------------------------------------------------------------------
    def steal_once(self, spread: int = 2, max_moves: int = 4) -> List[str]:
        """Re-route unclaimed requests from the busiest shard to the
        idlest when their backlogs differ by at least ``spread``.

        Only inbox files move — claimed work is owned. The atomic
        rename arbitrates against the victim's claim loop, so a
        request that both sides reach is taken by exactly one.
        """
        backlogs = self.fleet.backlogs()
        if len(backlogs) < 2:
            return []
        ordered = sorted(backlogs.items(), key=lambda kv: (kv[1], kv[0]))
        idlest, low = ordered[0]
        busiest, high = ordered[-1]
        if high - low < spread:
            return []
        src = self.fleet.shards[busiest].paths.inbox
        dst = self.fleet.shards[idlest].paths.inbox
        # move at most half the gap: stealing past the midpoint would
        # just invert the imbalance next tick
        budget = min(max_moves, max(1, (high - low) // 2))
        moved = move_requests(src, dst, limit=budget)
        if moved:
            self.stolen += len(moved)
            get_metrics().counter(
                "fabric.stolen", src=busiest, dst=idlest
            ).inc(len(moved))
            if self.event_log is not None:
                self.event_log.emit(
                    "steal", src=busiest, dst=idlest, moved=len(moved),
                    tickets=[Path(m).stem for m in moved],
                )
        return moved

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def collect_once(self) -> int:
        """Relay finished results from every shard outbox to the front
        outbox (payload before sidecar, so completion never lies)."""
        forwarded = 0
        for shard in self.fleet.shards.values():
            forwarded += forward_results(shard.paths.outbox, self.outbox)
        if forwarded:
            self.collected += forwarded
            get_metrics().counter("fabric.collected").inc(forwarded)
        return forwarded

    def stats(self) -> Dict[str, int]:
        return {
            "routed": self.routed,
            "stolen": self.stolen,
            "collected": self.collected,
            "rejected": self.rejected,
        }
