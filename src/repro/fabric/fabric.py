"""The fabric control loop, fleet status aggregation, and kill drill.

:class:`Fabric` is the single-threaded conductor: each :meth:`tick`
supervises (detect dead shards, re-home, respawn), routes (front inbox
→ shard inboxes by scene affinity), steals (rebalance unclaimed work),
collects (shard outboxes → front outbox), samples fleet telemetry into
the tsdb, asks the autoscaler for a size, and atomically republishes
``fabric_status.json``. Everything the tick needs it re-reads from
disk, so a crashed-and-restarted fabric process picks up the same
fleet mid-flight.

:func:`aggregate_status` / :func:`format_fleet` are the read side —
``python -m repro status --fabric ROOT`` renders any fabric root,
live or post-mortem, from its files alone.

:func:`run_drill` is the subsystem's acceptance test as a function:
spin up a fleet, submit a mixed scene load, SIGKILL a shard while it
holds claimed work, and verify **zero accepted requests lost** and
every ``divq`` **bit-identical** to an in-process single-machine
solve of the same spec.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.fabric.autoscaler import AutoscalePolicy, Autoscaler
from repro.fabric.events import EventLog
from repro.fabric.hashring import rendezvous_shard
from repro.fabric.router import Router
from repro.fabric.supervisor import Fleet, FleetSupervisor
from repro.perf import tracectx
from repro.perf.detect import default_bank, worst_severity
from repro.perf.tsdb import TimeSeriesStore
from repro.service.spool import read_result_meta, write_request
from repro.ups import (
    GridSpec,
    ProblemSpec,
    RMCRTSpec,
    run_ups,
    scene_fingerprint,
    spec_fingerprint,
    spec_to_ups,
)
from repro.util.atomic import atomic_write_text

#: default staleness bound used when a fabric root carries no recorded
#: heartbeat timeout (post-mortem aggregation of a foreign root)
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0


@dataclass
class FabricConfig:
    """Sizing and cadence of one fabric instance."""

    shards: int = 2                    #: initial fleet size
    workers_per_shard: int = 1         #: service workers inside each shard
    tick_s: float = 0.1                #: control-loop cadence
    heartbeat_timeout_s: float = 5.0   #: staleness bound before a shard is dead
    steal_spread: int = 2              #: backlog gap that triggers stealing
    autoscale: bool = True             #: let the autoscaler resize the fleet
    policy: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    max_queue: int = 256               #: per-shard service queue bound
    tsdb_interval_s: float = 0.5       #: shard-level tsdb cadence
    recovering_grace_s: float = 3.0    #: how long after a recovery the
                                       #: fleet reports ``recovering``


class Fabric:
    """One fabric instance rooted at a directory that is itself a spool."""

    def __init__(self, root, config: Optional[FabricConfig] = None) -> None:
        self.root = Path(root)
        self.config = config if config is not None else FabricConfig()
        self.inbox = self.root / "inbox"
        self.outbox = self.root / "outbox"
        self.shards_root = self.root / "shards"
        self.status_path = self.root / "fabric_status.json"
        self.stop_path = self.root / "fabric.stop"
        for d in (self.inbox, self.outbox, self.shards_root):
            d.mkdir(parents=True, exist_ok=True)
        self.fleet = Fleet()
        self.events = EventLog(self.root / "events.jsonl")
        self.supervisor = FleetSupervisor(
            self.fleet,
            self.shards_root,
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
            workers_per_shard=self.config.workers_per_shard,
            max_queue=self.config.max_queue,
            tsdb_interval_s=self.config.tsdb_interval_s,
            front_outbox=self.outbox,
            event_log=self.events,
        )
        self.router = Router(self.root, self.fleet, event_log=self.events)
        self.autoscaler = Autoscaler(
            TimeSeriesStore(self.root / "tsdb", rank=0), self.config.policy
        )
        #: streaming anomaly detectors over the fleet-level series the
        #: autoscaler samples each tick (backlog, burn, per-shard load)
        self.detect_bank = default_bank("fabric")
        self.ticks = 0
        self.scale_actions: List[dict] = []
        self._last_recovery_t: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def up(self) -> List[str]:
        """Spawn the initial fleet (idempotent per shard id)."""
        try:
            self.stop_path.unlink()
        except OSError:
            pass
        while len(self.fleet) < self.config.shards:
            self.supervisor.grow()
        return sorted(self.fleet.shards)

    def attach(self) -> List[str]:
        """Adopt already-running shards from the directory layout
        (router-only mode: no spawning, supervision reads heartbeats
        but owns no processes)."""
        if self.shards_root.is_dir():
            for sdir in sorted(self.shards_root.iterdir()):
                if sdir.is_dir() and sdir.name not in self.fleet.shards:
                    shard = self.supervisor.build_shard(sdir.name)
                    shard.draining = shard.paths.stop.exists()
                    self.fleet.add(shard)
        return sorted(self.fleet.shards)

    def down(self, timeout_s: float = 15.0) -> dict:
        """Drain and stop every shard, then publish a final status."""
        self.supervisor.shutdown(timeout_s=timeout_s)
        self.router.collect_once()
        doc = self._status_doc(time.time(), state_override="down")
        atomic_write_text(self.status_path, json.dumps(doc, indent=2) + "\n")
        return doc

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> dict:
        """One full control pass; returns the published status doc."""
        now = time.time() if now is None else now
        records = self.supervisor.check_once(now)
        if records:
            self._last_recovery_t = now
        self.router.route_once()
        self.router.steal_once(spread=self.config.steal_spread)
        self.router.collect_once()

        live = len(self.fleet.routable())
        backlog = sum(self.fleet.backlogs().values())
        worst_burn = 0.0
        degraded = 0
        for sid in self.fleet.routable():
            shard = self.fleet.shards[sid]
            worst_burn = max(worst_burn, shard.burn_rate())
            status = shard.status()
            if status is not None and status.get("degraded"):
                degraded += 1
        sample = self.autoscaler.observe(now, live, backlog, worst_burn,
                                         degraded)
        self.detect_bank.observe(sample)
        if self.config.autoscale and live > 0:
            desired, reason = self.autoscaler.decide(now, live)
            desired = min(self.config.policy.max_shards,
                          max(self.config.policy.min_shards, desired))
            if desired != live and reason is not None:
                self.supervisor.scale_to(desired)
                self.scale_actions.append(
                    {"t": now, "from": live, "to": desired, "reason": reason}
                )
                self.events.emit("autoscale", from_shards=live,
                                 to_shards=desired, reason=reason)

        self.ticks += 1
        doc = self._status_doc(now)
        atomic_write_text(self.status_path, json.dumps(doc, indent=2) + "\n")
        return doc

    def run(
        self,
        max_ticks: Optional[int] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> int:
        """The foreground loop of ``repro fabric up``: tick until the
        stop file appears (``repro fabric down``), the tick budget runs
        out, or the fleet has been idle past ``idle_timeout_s``."""
        last_busy = time.monotonic()
        while True:
            doc = self.tick()
            if doc["backlog"] > 0 or doc["router"]["routed"] > 0:
                if doc["backlog"] > 0:
                    last_busy = time.monotonic()
            if self.stop_path.exists():
                break
            if max_ticks is not None and self.ticks >= max_ticks:
                break
            if (idle_timeout_s is not None
                    and time.monotonic() - last_busy > idle_timeout_s):
                break
            time.sleep(self.config.tick_s)
        self.down()
        return 0

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def _status_doc(self, now: float, state_override: Optional[str] = None) -> dict:
        shards: Dict[str, dict] = {}
        any_degraded = False
        for sid in sorted(self.fleet.shards):
            shard = self.fleet.shards[sid]
            status = shard.status()
            degraded = bool(status and status.get("degraded"))
            any_degraded = any_degraded or (degraded and not shard.draining)
            shard_detect = (status or {}).get("detections") or {}
            shards[sid] = {
                "state": (
                    "draining" if shard.draining
                    else "dead" if shard.process_dead()
                    else "degraded" if degraded
                    else "ok"
                ),
                "heartbeat_age_s": shard.heartbeat_age(now),
                "backlog": shard.backlog(),
                "restarts": shard.restarts,
                "served": (status or {}).get("shard", {}).get("served", 0),
                "breaches": (status or {}).get("breaches", []),
                "detections_worst": shard_detect.get("worst"),
            }
        recovering = (
            self._last_recovery_t is not None
            and now - self._last_recovery_t < self.config.recovering_grace_s
        )
        if state_override is not None:
            state = state_override
        elif any_degraded:
            state = "degraded"
        elif recovering:
            state = "recovering"
        else:
            state = "ok"
        detections = self.detect_bank.as_dict(now)
        shard_worsts = [
            s["detections_worst"] for s in shards.values()
            if s.get("detections_worst")
        ]
        if detections["worst"]:
            shard_worsts.append(detections["worst"])
        incident = None
        if shard_worsts or self.supervisor.recoveries:
            from repro.perf.doctor import summarize_live  # repro: allow(layer-violation) only an unhealthy fleet

            incident = summarize_live(
                self.detect_bank.active(now),
                self.events.tail(50),
                now=now,
            )
        return {
            "t": now,
            "state": state,
            "live": len(self.fleet.routable()),
            "shards_total": len(self.fleet),
            "backlog": sum(self.fleet.backlogs().values()),
            "heartbeat_timeout_s": self.config.heartbeat_timeout_s,
            "router": self.router.stats(),
            "recoveries": self.supervisor.recoveries[-10:],
            "scale_actions": self.scale_actions[-10:],
            "autoscale": self.config.autoscale,
            "ticks": self.ticks,
            "detections": detections,
            "detections_worst_any": worst_severity(shard_worsts),
            "incident": incident,
            "shards": shards,
        }


# ----------------------------------------------------------------------
# read-side aggregation (works on any fabric root, live or post-mortem)
# ----------------------------------------------------------------------
def aggregate_status(root) -> dict:
    """Aggregate every shard's status.json under a fabric root into one
    fleet document. Reads files only — needs no live fabric process.

    The worst shard wins: any live shard that is degraded, or whose
    heartbeat is stale without a clean exit marker, makes the whole
    fleet ``degraded``.
    """
    root = Path(root)
    now = time.time()
    fab: Optional[dict] = None
    try:
        fab = json.loads((root / "fabric_status.json").read_text())
    except (OSError, json.JSONDecodeError):
        fab = None
    timeout = DEFAULT_HEARTBEAT_TIMEOUT_S
    if fab and isinstance(fab.get("heartbeat_timeout_s"), (int, float)):
        timeout = float(fab["heartbeat_timeout_s"])

    shards: Dict[str, dict] = {}
    worst = "ok"
    shards_dir = root / "shards"
    if shards_dir.is_dir():
        for sdir in sorted(p for p in shards_dir.iterdir() if p.is_dir()):
            sid = sdir.name
            try:
                doc = json.loads((sdir / "status.json").read_text())
            except (OSError, json.JSONDecodeError):
                shards[sid] = {"state": "unknown"}
                continue
            info = doc.get("shard", {})
            hb = doc.get("heartbeat_t")
            age = max(0.0, now - float(hb)) if isinstance(hb, (int, float)) else None
            exited = bool(info.get("exited"))
            stale = age is not None and age > timeout
            detect = doc.get("detections") or {}
            det_worst = detect.get("worst")
            if exited:
                state = "exited"
            elif doc.get("degraded"):
                state = "degraded"
                worst = "degraded"
            elif stale:
                state = "dead"
                worst = "degraded"
            elif det_worst == "critical":
                # a live shard screaming critical detections counts
                # against the fleet even before its SLO math degrades
                state = "degraded"
                worst = "degraded"
            else:
                state = "ok"
            solve = (doc.get("endpoints") or {}).get("solve", {})
            shards[sid] = {
                "state": state,
                "heartbeat_age_s": age,
                "served": info.get("served", 0),
                "inbox_depth": info.get("inbox_depth", 0),
                "claimed_depth": info.get("claimed_depth", 0),
                "queue_depth": doc.get("queue_depth", 0),
                "requests": solve.get("requests", 0),
                "p99_s": solve.get("p99_s"),
                "breaches": doc.get("breaches", []),
                "detections_worst": det_worst,
                "detections": [
                    d.get("message") for d in detect.get("active", [])
                ],
            }
    if worst == "ok" and fab is not None and fab.get("state") in (
        "recovering", "degraded"
    ):
        # trust the live controller's finer-grained verdict when the
        # per-shard files alone look clean
        worst = fab["state"]
    return {
        "t": now,
        "state": worst,
        "shards": shards,
        "fabric": fab,
    }


def format_fleet(doc: dict) -> str:
    """Render an :func:`aggregate_status` document as the dashboard."""

    def fmt_ms(v) -> str:
        return f"{v * 1e3:8.1f}ms" if isinstance(v, (int, float)) else "       --"

    def fmt_age(v) -> str:
        return f"{v:5.1f}s" if isinstance(v, (int, float)) else "    --"

    shards = doc.get("shards", {})
    fab = doc.get("fabric") or {}
    live = sum(1 for s in shards.values() if s.get("state") == "ok")
    lines = [
        f"fabric status: {doc.get('state', 'unknown').upper()}   "
        f"({live}/{len(shards)} shard(s) healthy, "
        f"backlog {fab.get('backlog', '?')}, "
        f"routed {fab.get('router', {}).get('routed', '?')}, "
        f"stolen {fab.get('router', {}).get('stolen', '?')})"
    ]
    if shards:
        lines.append(
            f"  {'shard':<10} {'state':<10} {'hb':>6} {'served':>7} "
            f"{'inbox':>6} {'claim':>6} {'queue':>6} {'p99':>10}"
        )
        for sid in sorted(shards):
            s = shards[sid]
            lines.append(
                f"  {sid:<10} {s.get('state', '?'):<10} "
                f"{fmt_age(s.get('heartbeat_age_s'))} "
                f"{s.get('served', 0):>7} {s.get('inbox_depth', 0):>6} "
                f"{s.get('claimed_depth', 0):>6} {s.get('queue_depth', 0):>6} "
                f"{fmt_ms(s.get('p99_s'))}"
            )
            for breach in s.get("breaches", []):
                lines.append(f"    BREACH: {breach}")
            for message in (s.get("detections") or [])[:4]:
                worst_tag = (s.get("detections_worst") or "warn").upper()
                lines.append(f"    DETECT [{worst_tag}]: {message}")
    else:
        lines.append("  no shards found")
    incident = fab.get("incident")
    if incident and incident.get("hypotheses"):
        top = incident["hypotheses"][0]
        lines.append(
            f"  incident: {top.get('cause')} ({top.get('subject') or 'fleet'}) "
            f"confidence {top.get('confidence', 0):.0%} — {top.get('summary')}"
        )
    for rec in fab.get("recoveries", [])[-3:]:
        lines.append(
            f"  recovery: {rec.get('shard')} {rec.get('reason')} — "
            f"{rec.get('claims_released', 0)} claim(s) released, "
            f"{rec.get('requests_rehomed', 0)} request(s) re-homed → "
            f"{rec.get('target') or 'self'}"
        )
    for act in fab.get("scale_actions", [])[-3:]:
        lines.append(
            f"  autoscale: {act.get('from')} → {act.get('to')} shard(s) "
            f"({act.get('reason')})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the kill-one-shard drill
# ----------------------------------------------------------------------
def _drill_specs(repeats: int) -> List[ProblemSpec]:
    """A mixed scene load: several distinct grid geometries (so routing
    spreads them over the fleet) times ``repeats`` distinct seeds (so
    each ticket is a real solve, not a cache collapse)."""
    geometries = [
        GridSpec(resolution=8, levels=1),
        GridSpec(resolution=10, levels=1),
        GridSpec(resolution=12, levels=2, refinement_ratio=2, patch_size=6),
        GridSpec(resolution=14, levels=1),
        GridSpec(resolution=9, levels=1),
        GridSpec(resolution=16, levels=2, refinement_ratio=2, patch_size=8),
    ]
    specs = []
    for gi, grid in enumerate(geometries):
        rays = 3 if grid.levels == 2 else 2
        for rep in range(repeats):
            specs.append(
                ProblemSpec(
                    grid=grid,
                    rmcrt=RMCRTSpec(
                        n_divq_rays=rays, random_seed=101 + 17 * gi + rep
                    ),
                )
            )
    return specs


def run_drill(
    root,
    shards: int = 2,
    repeats: int = 2,
    kill: bool = True,
    timeout_s: float = 300.0,
    report_path: Optional[str] = None,
) -> dict:
    """Kill a loaded shard mid-flight and prove nothing was lost.

    Returns (and optionally writes) a report with the three gates the
    CI job asserts on: ``lost == 0``, ``byte_identical``, and a
    ``recovering``/``degraded`` state observed before the final ``ok``.
    """
    config = FabricConfig(
        shards=shards, autoscale=False, tick_s=0.05, heartbeat_timeout_s=5.0
    )
    fabric = Fabric(root, config)
    specs = _drill_specs(repeats)
    tickets: Dict[str, ProblemSpec] = {}
    for i, spec in enumerate(specs):
        ticket = f"drill-{i:03d}-{spec_fingerprint(spec)[:8]}"
        write_request(
            fabric.inbox, ticket, spec_to_ups(spec), ctx=tracectx.child_or_new()
        )
        tickets[ticket] = spec

    states: List[str] = []
    report: dict = {
        "requests": len(tickets), "shards": shards, "killed": None,
        "kill_state": None, "lost": None, "errors": 0,
        "byte_identical": None, "mismatched": [], "states_observed": [],
        "recoveries": [], "elapsed_s": None, "ok": False,
    }
    t0 = time.monotonic()
    try:
        fabric.up()
        states.append(fabric.tick()["state"])  # routes everything

        victim_handle = None
        if kill:
            ids = fabric.fleet.routable()
            placement: Dict[str, int] = {sid: 0 for sid in ids}
            for spec in tickets.values():
                placement[rendezvous_shard(scene_fingerprint(spec), ids)] += 1
            victim = max(sorted(placement), key=lambda s: placement[s])
            victim_handle = fabric.fleet.shards[victim]
            report["killed"] = victim
            report["victim_load"] = placement[victim]
            # wait for the victim to *own* work (claimed files), so the
            # kill lands inside the zero-loss window the claim protocol
            # protects; if it drains everything first, kill anyway and
            # say so
            claim_deadline = time.monotonic() + 30.0
            report["kill_state"] = "unclaimed"
            while time.monotonic() < claim_deadline:
                if victim_handle.paths.claimed_depth() > 0:
                    report["kill_state"] = "claimed"
                    break
                done = sum(
                    1 for _ in victim_handle.paths.outbox.glob("*.json")
                )
                if (victim_handle.paths.inbox_depth() == 0
                        and done >= placement[victim]):
                    report["kill_state"] = "after-drain"
                    break
                time.sleep(0.001)
            victim_handle.kill()
            victim_handle.wait(timeout=10.0)

        pending = set(tickets)
        deadline = time.monotonic() + timeout_s
        while pending and time.monotonic() < deadline:
            doc = fabric.tick()
            states.append(doc["state"])
            for ticket in sorted(pending):
                if read_result_meta(fabric.outbox, ticket) is not None:
                    pending.discard(ticket)
            time.sleep(config.tick_s)
        report["lost"] = len(pending)
        report["lost_tickets"] = sorted(pending)
        report["recoveries"] = fabric.supervisor.recoveries
        # let the recovery grace elapse so the report shows the full
        # arc: ok → recovering → ok
        settle_deadline = time.monotonic() + config.recovering_grace_s + 3.0
        while time.monotonic() < settle_deadline:
            state = fabric.tick()["state"]
            states.append(state)
            if state == "ok":
                break
            time.sleep(config.tick_s)
    finally:
        fabric.down()

    # verify: every answered ticket must match an in-process solve of
    # the same spec exactly — the fabric may move work anywhere, but it
    # may never change an answer
    mismatched: List[str] = []
    errors = 0
    for ticket, spec in sorted(tickets.items()):
        meta = read_result_meta(fabric.outbox, ticket)
        if meta is None:
            continue
        if meta.get("error"):
            errors += 1
            mismatched.append(f"{ticket}: error {meta['error']}")
            continue
        with np.load(fabric.outbox / f"{ticket}.npz") as payload:
            got = payload["divq"]
        want = run_ups(spec).divq
        if not (got.shape == want.shape and np.array_equal(got, want)):
            mismatched.append(f"{ticket}: divq differs")
    report["errors"] = errors
    report["mismatched"] = mismatched
    report["byte_identical"] = not mismatched
    report["states_observed"] = sorted(set(states))
    report["final_state"] = states[-1] if states else None
    report["elapsed_s"] = round(time.monotonic() - t0, 3)
    disrupted = {"recovering", "degraded"} & set(states)
    report["ok"] = bool(
        report["lost"] == 0
        and report["byte_identical"]
        and (not kill or (disrupted and bool(report["recoveries"])))
    )
    if report_path:
        atomic_write_text(
            Path(report_path), json.dumps(report, indent=2) + "\n"
        )
    return report
