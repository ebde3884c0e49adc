"""The root-cause doctor: from detections to ranked hypotheses.

:mod:`repro.perf.detect` says *something is wrong*; this module says
*what probably caused it*. The doctor gathers every telemetry surface
a spool or fabric root leaves on disk —

* **detections** — a fresh detector-bank replay of each retained tsdb
  (the root's fleet series and every shard's serve series),
* **events** — the fabric supervisor's append-only ``events.jsonl``
  (death, re-home, respawn, steal, autoscale),
* **flight recorder** — ``flightrec_rank*.json`` crash postmortems,
* **status facts** — cache hit/miss/solve counters, queue depth, SLO
  breaches from each ``status.json``,
* **analysis** — per-rank imbalance from an ``analysis_report.json``

— into one :class:`Evidence` timeline, then scores causal rules over
it. Each rule knows what telemetry shape its cause leaves behind
(a shard death leaves death→rehome→respawn events; a slow worker
leaves latency-quantile drift with *nothing dying*; a poisoned cache
leaves a hit-ratio collapse with a solve surge) and how other causes
explain away its symptoms (backlog growth is discounted when a death
or slowdown is present, because queues back up downstream of both).
The ranked :class:`Hypothesis` list, with evidence-chain indices into
the timeline, is the ``incident.json`` the CI drill asserts on and the
human-readable timeline ``python -m repro doctor`` prints.

The loop is proven closed by :func:`run_doctor_drill`: a
FaultPlan-driven self-test injects three known causes — SIGKILL the
busiest fabric shard, ``--inject-slowdown`` a serve worker, poison
the disk result cache — and requires the doctor's *top-ranked*
hypothesis to name the true cause for each.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.events import read_events
from repro.perf.detect import (
    CACHE_HIT_RATIO,
    Detection,
    default_bank,
)
from repro.util.atomic import atomic_write_text
from repro.util.errors import PerfError

#: causes the rule engine can name, ranked hypotheses use these ids
CAUSES = (
    "shard-death",
    "worker-slowdown",
    "cache-poison",
    "queue-overload",
    "load-imbalance",
)


@dataclass
class Evidence:
    """One timeline entry: a detection, event, crash dump, status
    fact, or analysis finding."""

    kind: str     # detection | event | flightrec | status | analysis
    t: float
    source: str   # series, file, or shard the entry came from
    summary: str
    data: Dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "source": self.source,
            "summary": self.summary,
            "data": self.data,
        }


@dataclass
class Hypothesis:
    """One scored root-cause candidate with its evidence chain."""

    cause: str
    subject: Optional[str]
    score: float
    summary: str
    evidence: List[int] = field(default_factory=list)  # timeline indices
    confidence: float = 0.0

    def as_dict(self) -> dict:
        return {
            "cause": self.cause,
            "subject": self.subject,
            "score": round(self.score, 3),
            "confidence": round(self.confidence, 4),
            "summary": self.summary,
            "evidence": sorted(set(self.evidence)),
        }


# ----------------------------------------------------------------------
# evidence collection (reads files only — live or postmortem)
# ----------------------------------------------------------------------
def _tsdb_dirs(root: Path) -> List[Tuple[Path, str, str]]:
    """Every tsdb directory under a root: ``(dir, label, rule_kind)``.
    A fabric root's own tsdb holds the fleet series; each shard dir
    holds serve series; a bare spool holds serve series."""
    out: List[Tuple[Path, str, str]] = []
    own = root / "tsdb"
    if own.is_dir():
        is_fabric = (root / "fabric_status.json").exists() or (
            root / "shards").is_dir()
        out.append((own, "root", "fabric" if is_fabric else "serve"))
    shards = root / "shards"
    if shards.is_dir():
        for sdir in sorted(p for p in shards.iterdir() if p.is_dir()):
            tdir = sdir / "tsdb"
            if tdir.is_dir():
                out.append((tdir, sdir.name, "serve"))
    return out


def _scan_detections(root: Path, t0: Optional[float]) -> List[Evidence]:
    from repro.perf.tsdb import TimeSeriesStore

    out: List[Evidence] = []
    for tdir, label, kind in _tsdb_dirs(root):
        for path in sorted(tdir.glob("tsdb_rank*.jsonl")):
            try:
                rank = int(path.stem.replace("tsdb_rank", ""))
            except ValueError:
                continue
            store = TimeSeriesStore(tdir, rank=rank)
            bank = default_bank(kind, hold_s=float("inf"))
            for d in bank.scan(store):
                if t0 is not None and d.t < t0:
                    continue
                doc = d.as_dict()
                doc["scope"] = label
                out.append(Evidence(
                    kind="detection",
                    t=d.t,
                    source=f"{label}:{d.series}",
                    summary=f"[{d.severity}] {d.message}",
                    data=doc,
                ))
    return out


def _event_summary(rec: dict) -> str:
    kind = rec.get("kind", "?")
    shard = rec.get("shard")
    if kind == "death":
        return f"shard {shard} died ({rec.get('reason', '?')})"
    if kind == "rehome":
        return (f"shard {shard}: {rec.get('claims_released', 0)} claim(s) "
                f"released, {rec.get('requests_rehomed', 0)} request(s) "
                f"re-homed to {rec.get('target') or 'self'}")
    if kind == "respawn":
        return f"shard {shard} respawned (pid {rec.get('pid')})"
    if kind == "steal":
        return (f"{rec.get('moved', 0)} request(s) stolen "
                f"{rec.get('src')} -> {rec.get('dst')}")
    if kind == "autoscale":
        return (f"autoscale {rec.get('from_shards')} -> "
                f"{rec.get('to_shards')} ({rec.get('reason')})")
    return f"{kind} {shard or ''}".strip()


def _collect_events(root: Path, t0: Optional[float]) -> List[Evidence]:
    return [
        Evidence(
            kind="event",
            t=float(rec.get("t", 0.0)),
            source="events.jsonl",
            summary=_event_summary(rec),
            data=rec,
        )
        for rec in read_events(root / "events.jsonl", t0=t0)
    ]


def _collect_flightrec(root: Path, t0: Optional[float]) -> List[Evidence]:
    out: List[Evidence] = []
    paths = sorted(root.glob("flightrec_rank*.json"))
    shards = root / "shards"
    if shards.is_dir():
        for sdir in sorted(p for p in shards.iterdir() if p.is_dir()):
            paths.extend(sorted(sdir.glob("flightrec_rank*.json")))
    for path in paths:
        try:
            payload = json.loads(path.read_text())
            mtime = path.stat().st_mtime
        except (OSError, json.JSONDecodeError):
            continue
        if t0 is not None and mtime < t0:
            continue
        out.append(Evidence(
            kind="flightrec",
            t=mtime,
            source=str(path.relative_to(root)),
            summary=(f"flight recorder dump (rank {payload.get('rank')}, "
                     f"reason {payload.get('reason', '?')}, "
                     f"{payload.get('entries_in_dump', 0)} entries)"),
            data={"reason": payload.get("reason"),
                  "rank": payload.get("rank"),
                  "entries_in_dump": payload.get("entries_in_dump", 0)},
        ))
    return out


def _status_paths(root: Path) -> List[Tuple[Path, str]]:
    out: List[Tuple[Path, str]] = []
    if (root / "status.json").exists():
        out.append((root / "status.json", "root"))
    shards = root / "shards"
    if shards.is_dir():
        for sdir in sorted(p for p in shards.iterdir() if p.is_dir()):
            if (sdir / "status.json").exists():
                out.append((sdir / "status.json", sdir.name))
    return out


def _collect_status(root: Path) -> List[Evidence]:
    out: List[Evidence] = []
    for path, label in _status_paths(root):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        stats = (doc.get("shard") or {}).get("stats") or {}
        hits = (stats.get("cache_hits_memory") or 0) + (
            stats.get("cache_hits_disk") or 0)
        data = {
            "shard": label,
            "degraded": bool(doc.get("degraded")),
            "breaches": doc.get("breaches") or [],
            "queue_depth": doc.get("queue_depth", 0),
            "cache_hits": hits,
            "cache_misses": stats.get("cache_misses") or 0,
            "solves": stats.get("solves") or 0,
            "requests": stats.get("requests") or 0,
            "detections_worst": (doc.get("detections") or {}).get("worst"),
        }
        bits = [f"{label}: cache {hits:g} hit(s) / "
                f"{data['cache_misses']:g} miss(es), "
                f"{data['solves']:g} solve(s), "
                f"queue {data['queue_depth']}"]
        if data["degraded"]:
            bits.append("DEGRADED")
        for breach in data["breaches"]:
            bits.append(f"breach: {breach}")
        out.append(Evidence(
            kind="status",
            t=float(doc.get("heartbeat_t") or 0.0),
            source=str(path.relative_to(root)),
            summary="; ".join(bits),
            data=data,
        ))
    return out


def _collect_analysis(root: Path) -> List[Evidence]:
    path = root / "analysis_report.json"
    if not path.exists():
        return []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    att = report.get("attribution") or {}
    per_rank = att.get("per_rank") or []
    wall = att.get("wall_s") or 0.0
    if len(per_rank) < 2 or wall <= 0:
        return []
    idle_fracs = [row.get("idle_s", 0.0) / wall for row in per_rank]
    spread = max(idle_fracs) - min(idle_fracs)
    if spread < 0.25:
        return []  # balanced enough — not evidence of anything
    laziest = max(range(len(per_rank)),
                  key=lambda i: idle_fracs[i])
    return [Evidence(
        kind="analysis",
        t=path.stat().st_mtime,
        source="analysis_report.json",
        summary=(f"per-rank idle spread {spread:.0%} of wall clock "
                 f"(rank {laziest} idles {idle_fracs[laziest]:.0%})"),
        data={"idle_spread_frac": spread, "laziest_rank": laziest},
    )]


def collect_evidence(root, window_s: Optional[float] = None,
                     now: Optional[float] = None) -> List[Evidence]:
    """The full evidence timeline for a spool or fabric root, time
    ascending. ``window_s`` restricts detections/events to the recent
    window (live mode); None replays everything retained (postmortem)."""
    root = Path(root)
    now = time.time() if now is None else now
    t0 = (now - window_s) if window_s is not None else None
    evidence = (
        _scan_detections(root, t0)
        + _collect_events(root, t0)
        + _collect_flightrec(root, t0)
        + _collect_status(root)
        + _collect_analysis(root)
    )
    evidence.sort(key=lambda e: e.t)
    return evidence


# ----------------------------------------------------------------------
# the causal rules
# ----------------------------------------------------------------------
def _detections(ev: Sequence[Evidence]):
    for i, e in enumerate(ev):
        if e.kind == "detection":
            yield i, e


def _events_of(ev: Sequence[Evidence], *kinds: str):
    for i, e in enumerate(ev):
        if e.kind == "event" and e.data.get("kind") in kinds:
            yield i, e


def _rule_shard_death(ev: Sequence[Evidence]) -> Optional[Hypothesis]:
    deaths = list(_events_of(ev, "death"))
    if not deaths:
        return None
    chain = [i for i, _ in deaths]
    score = 4.0 * len(deaths)
    for i, e in _events_of(ev, "rehome", "respawn"):
        score += 1.0
        chain.append(i)
    for i, e in enumerate(ev):
        if e.kind == "flightrec":
            score += 1.0
            chain.append(i)
    # backlog/queue disturbance around a death corroborates (the
    # re-homed work piles onto the survivor)
    for i, e in _detections(ev):
        series = e.data.get("series", "")
        if "backlog" in series or "queue" in series:
            score += 0.5
            chain.append(i)
    victim = deaths[0][1].data.get("shard")
    reason = deaths[0][1].data.get("reason", "?")
    return Hypothesis(
        cause="shard-death",
        subject=victim,
        score=score,
        summary=(f"shard {victim} died ({reason}); its work was re-homed "
                 f"and the shard respawned — {len(deaths)} death(s) in "
                 "the window"),
        evidence=chain,
    )


def _rule_worker_slowdown(ev: Sequence[Evidence]) -> Optional[Hypothesis]:
    drifted: Dict[str, int] = {}
    chain: List[int] = []
    worst_ratio = 0.0
    for i, e in _detections(ev):
        series = e.data.get("series", "")
        if (e.data.get("detector") == "quantile-drift"
                and (series.endswith(".p95_s") or series.endswith(".p99_s"))):
            drifted[series] = i
            chain.append(i)
            worst_ratio = max(
                worst_ratio, (e.data.get("evidence") or {}).get("ratio", 0.0))
    if not drifted:
        return None
    score = 3.0 * min(3, len(drifted))
    for i, e in enumerate(ev):
        if e.kind == "status" and any(
                "p99" in str(b) for b in e.data.get("breaches", [])):
            score += 1.0
            chain.append(i)
    scopes = {e.data.get("scope") for i, e in _detections(ev)
              if i in set(chain)}
    # a death explains latency better than a slow worker does; a cache
    # collapse also inflates latency (solves where hits used to be)
    if any(True for _ in _events_of(ev, "death")):
        score *= 0.25
    if any(e.data.get("series") == CACHE_HIT_RATIO
           for _, e in _detections(ev)):
        score *= 0.5
    subject = sorted(s for s in scopes if s)[0] if scopes else None
    return Hypothesis(
        cause="worker-slowdown",
        subject=subject,
        score=score,
        summary=(f"latency quantiles drifted up to {worst_ratio:.1f}x "
                 f"baseline on {len(drifted)} series with no shard "
                 "death in the window — a worker got slow"),
        evidence=chain,
    )


def _rule_cache_poison(ev: Sequence[Evidence]) -> Optional[Hypothesis]:
    chain: List[int] = []
    worst_ratio = 0.0
    scopes = set()
    for i, e in _detections(ev):
        if e.data.get("series", "").endswith(CACHE_HIT_RATIO):
            chain.append(i)
            scopes.add(e.data.get("scope"))
            worst_ratio = max(
                worst_ratio, (e.data.get("evidence") or {}).get("ratio", 0.0))
    if not chain:
        return None
    score = 4.0 * min(3, len(chain))
    for i, e in enumerate(ev):
        if e.kind != "status":
            continue
        # a warmed service whose hits went to zero while solves track
        # requests is serving everything the hard way
        if (e.data.get("cache_hits", 0) == 0
                and e.data.get("cache_misses", 0) >= 3
                and e.data.get("solves", 0) >= 3):
            score += 2.0
            chain.append(i)
    subject = sorted(s for s in scopes if s)[0] if scopes else None
    return Hypothesis(
        cause="cache-poison",
        subject=f"{subject or 'service'}:result-cache",
        score=score,
        summary=(f"cache hit ratio collapsed {worst_ratio:.1f}x from "
                 "baseline while solves surged — the result cache stopped "
                 "answering (poisoned, corrupted, or evicted)"),
        evidence=chain,
    )


def _rule_queue_overload(ev: Sequence[Evidence]) -> Optional[Hypothesis]:
    chain: List[int] = []
    for i, e in _detections(ev):
        series = e.data.get("series", "")
        if "queue_depth" in series or "backlog" in series:
            chain.append(i)
    score = 2.0 * min(3, len(chain))
    for i, e in enumerate(ev):
        if e.kind == "status" and any(
                "queue" in str(b) for b in e.data.get("breaches", [])):
            score += 2.0
            chain.append(i)
    if not chain:
        return None
    # backlog is the *symptom* of most other causes: only blame load
    # itself when nothing upstream explains it
    upstream = (
        any(True for _ in _events_of(ev, "death"))
        or any(e.data.get("detector") == "quantile-drift"
               for _, e in _detections(ev))
    )
    if upstream:
        score *= 0.3
    return Hypothesis(
        cause="queue-overload",
        subject=None,
        score=score,
        summary=("queue depth / backlog broke its band with no upstream "
                 "cause in evidence — offered load exceeds capacity"
                 if not upstream else
                 "queue depth rose, but an upstream cause better explains it"),
        evidence=chain,
    )


def _rule_load_imbalance(ev: Sequence[Evidence]) -> Optional[Hypothesis]:
    chain = [i for i, e in enumerate(ev) if e.kind == "analysis"]
    if not chain:
        return None
    spread = max(ev[i].data.get("idle_spread_frac", 0.0) for i in chain)
    return Hypothesis(
        cause="load-imbalance",
        subject=f"rank{ev[chain[0]].data.get('laziest_rank')}",
        score=3.0 * len(chain),
        summary=(f"critical-path analysis shows a {spread:.0%} per-rank "
                 "idle spread — work is unevenly distributed"),
        evidence=chain,
    )


_RULES: Tuple[Callable[[Sequence[Evidence]], Optional[Hypothesis]], ...] = (
    _rule_shard_death,
    _rule_cache_poison,
    _rule_worker_slowdown,
    _rule_queue_overload,
    _rule_load_imbalance,
)


def rank_hypotheses(evidence: Sequence[Evidence]) -> List[Hypothesis]:
    """Score every rule over the timeline; ranked best-first with
    normalized confidence."""
    hyps = [h for h in (rule(evidence) for rule in _RULES)
            if h is not None and h.score > 0]
    total = sum(h.score for h in hyps)
    for h in hyps:
        h.confidence = h.score / total if total > 0 else 0.0
    hyps.sort(key=lambda h: (-h.score, h.cause))
    return hyps


# ----------------------------------------------------------------------
# incidents
# ----------------------------------------------------------------------
def diagnose(root, window_s: Optional[float] = None,
             now: Optional[float] = None) -> dict:
    """The full diagnosis of a root: evidence timeline + ranked
    hypotheses, as the ``incident.json`` document."""
    now = time.time() if now is None else now
    evidence = collect_evidence(root, window_s=window_s, now=now)
    hyps = rank_hypotheses(evidence)
    detections = [e for e in evidence if e.kind == "detection"]
    return {
        "t": now,
        "root": str(root),
        "window_s": window_s,
        "cause": hyps[0].cause if hyps else None,
        "subject": hyps[0].subject if hyps else None,
        "hypotheses": [h.as_dict() for h in hyps],
        "evidence": [e.as_dict() for e in evidence],
        "counts": {
            "evidence": len(evidence),
            "detections": len(detections),
            "events": sum(1 for e in evidence if e.kind == "event"),
            "critical": sum(
                1 for e in detections
                if e.data.get("severity") == "critical"),
        },
    }


def summarize_live(detections: Sequence[Detection], events: Sequence[dict],
                   now: Optional[float] = None) -> Optional[dict]:
    """A compact incident summary from in-memory state — what the
    fabric control loop embeds in ``fabric_status.json`` each tick
    without touching disk."""
    evidence: List[Evidence] = [
        Evidence(kind="detection", t=d.t, source=d.series,
                 summary=f"[{d.severity}] {d.message}", data=d.as_dict())
        for d in detections
    ]
    evidence.extend(
        Evidence(kind="event", t=float(rec.get("t", 0.0)),
                 source="events.jsonl", summary=_event_summary(rec),
                 data=rec)
        for rec in events
    )
    evidence.sort(key=lambda e: e.t)
    hyps = rank_hypotheses(evidence)
    if not hyps:
        return None
    return {
        "t": time.time() if now is None else now,
        "cause": hyps[0].cause,
        "subject": hyps[0].subject,
        "hypotheses": [
            dict(h.as_dict(),
                 evidence_summaries=[evidence[i].summary
                                     for i in sorted(set(h.evidence))[:4]])
            for h in hyps[:3]
        ],
    }


def write_incident(path, incident: dict) -> Path:
    return atomic_write_text(Path(path), json.dumps(incident, indent=2) + "\n")


def format_incident(incident: dict, max_evidence: int = 40) -> str:
    """Human-readable incident: the timeline, then ranked hypotheses
    with their evidence chains."""
    evidence = incident.get("evidence") or []
    hyps = incident.get("hypotheses") or []
    counts = incident.get("counts") or {}
    lines = [
        f"incident @ {incident.get('root', '?')} — "
        f"{counts.get('detections', 0)} detection(s) "
        f"({counts.get('critical', 0)} critical), "
        f"{counts.get('events', 0)} fabric event(s)"
    ]
    if evidence:
        lines.append("timeline:")
        shown = evidence[-max_evidence:]
        base = len(evidence) - len(shown)
        t_first = shown[0].get("t", 0.0)
        for off, e in enumerate(shown):
            dt = e.get("t", 0.0) - t_first
            lines.append(
                f"  [{base + off:3d}] +{dt:7.2f}s {e.get('kind', '?'):<9} "
                f"{e.get('summary', '')}"
            )
    if hyps:
        lines.append("hypotheses (ranked):")
        for rank, h in enumerate(hyps, start=1):
            refs = ",".join(str(i) for i in (h.get("evidence") or [])[:8])
            lines.append(
                f"  {rank}. {h.get('cause'):<16} "
                f"confidence {h.get('confidence', 0):5.0%}  "
                f"subject {h.get('subject') or '-'}  evidence [{refs}]"
            )
            lines.append(f"     {h.get('summary')}")
    else:
        lines.append("hypotheses: none — nothing looks wrong")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the FaultPlan-driven self-test drill
# ----------------------------------------------------------------------
def _drill_spec(seed: int):
    from repro.ups import GridSpec, ProblemSpec, RMCRTSpec

    return ProblemSpec(
        grid=GridSpec(resolution=8, levels=1),
        rmcrt=RMCRTSpec(n_divq_rays=2, random_seed=seed),
    )


def _serve_argv(spool: Path, max_requests: int, tsdb_interval: float,
                cache_dir: Optional[Path] = None,
                extra: Sequence[str] = ()) -> List[str]:
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--spool", str(spool),
        "--shard-id", "shard0",
        "--workers", "1",
        "--max-requests", str(max_requests),
        "--idle-timeout", "10",
        "--tsdb-interval", str(tsdb_interval),
        "--batch-window", "0.001",
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    argv += list(extra)
    return argv


def _serve_and_submit(spool: Path, specs, tsdb_interval: float,
                      cache_dir: Optional[Path] = None,
                      extra: Sequence[str] = (),
                      prefix: str = "doctor",
                      timeout_s: float = 180.0) -> None:
    """One serve subprocess fed one request at a time, waiting for
    each result before sending the next and sending no faster than the
    tsdb cadence (so every request is a distinct serve pass and lands
    in a sample of its own, however fast the spool answers). ``prefix`` must
    be unique per serve phase sharing a spool — a reused ticket name
    would match the previous phase's stale outbox result and the
    pacing (and its telemetry) would collapse."""
    from repro.service.spool import wait_result, write_request
    from repro.ups import spec_to_ups

    inbox, outbox = spool / "inbox", spool / "outbox"
    inbox.mkdir(parents=True, exist_ok=True)
    outbox.mkdir(parents=True, exist_ok=True)
    log = (spool / "serve_drill.log").open("a", encoding="utf-8")
    proc = subprocess.Popen(
        _serve_argv(spool, len(specs), tsdb_interval,
                    cache_dir=cache_dir, extra=extra),
        stdout=log, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + timeout_s
    try:
        for i, spec in enumerate(specs):
            ticket = f"{prefix}-{i:03d}"
            sent = time.monotonic()
            write_request(inbox, ticket, spec_to_ups(spec))
            if wait_result(outbox, ticket, deadline,
                           alive=lambda: proc.poll() is None) is None:
                if proc.poll() is not None:
                    raise PerfError(
                        f"doctor drill: serve exited early (rc "
                        f"{proc.returncode}); see {spool}/serve_drill.log")
                raise PerfError(
                    f"doctor drill: no result for {ticket} within "
                    f"{timeout_s}s")
            time.sleep(max(0.0, sent + tsdb_interval - time.monotonic()))
        if proc.wait(timeout=60.0) != 0:
            raise PerfError(
                f"doctor drill: serve failed (rc {proc.returncode})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        log.close()


def _drill_shard_death(root: Path) -> dict:
    from repro.fabric.fabric import run_drill

    report = run_drill(root, shards=2, repeats=1, kill=True,
                       timeout_s=240.0)
    if report["lost"] or not report["killed"]:
        raise PerfError(f"doctor drill: fabric kill drill failed: {report}")
    return {"killed": report["killed"]}


def _drill_worker_slowdown(root: Path, delay_s: float = 0.3,
                           warmup: int = 8, requests: int = 18) -> dict:
    specs = [_drill_spec(seed=500 + i) for i in range(requests)]
    _serve_and_submit(
        root, specs, tsdb_interval=0.05,
        extra=["--inject-slowdown", str(delay_s),
               "--inject-slowdown-after", str(warmup)],
    )
    return {"delay_s": delay_s, "warmup": warmup}


def _drill_cache_poison(root: Path, requests: int = 14) -> dict:
    cache_dir = root / "cachedisk"
    specs = [_drill_spec(seed=900 + i) for i in range(requests)]
    # phase 1: warm the disk cache (tsdb off — the poisoning story
    # starts at the healthy, warmed baseline)
    _serve_and_submit(root, specs, tsdb_interval=0.0, cache_dir=cache_dir,
                      prefix="warm")
    # phase 2: a fresh serve answers everything from disk — the high
    # hit-ratio baseline the detectors learn
    _serve_and_submit(root, specs, tsdb_interval=0.05, cache_dir=cache_dir,
                      prefix="baseline")
    # phase 3: poison every cached payload (sidecars stay — the cache
    # *looks* warm, which is exactly what makes this cause sneaky)
    poisoned = 0
    for npz in sorted(cache_dir.glob("*.npz")):
        npz.write_bytes(b"poisoned!" * 8)
        poisoned += 1
    if not poisoned:
        raise PerfError(f"doctor drill: nothing to poison in {cache_dir}")
    # phase 4: the same load that just hit 100% now misses 100%
    _serve_and_submit(root, specs, tsdb_interval=0.05, cache_dir=cache_dir,
                      prefix="poisoned")
    return {"poisoned": poisoned}


_DRILL_INJECTORS: Dict[str, Callable[[Path], dict]] = {
    "shard-death": _drill_shard_death,
    "worker-slowdown": _drill_worker_slowdown,
    "cache-poison": _drill_cache_poison,
}


def run_doctor_drill(root, causes: Optional[Sequence[str]] = None,
                     report_path=None) -> dict:
    """The closed-loop self-test: inject each cause from a FaultPlan,
    run the doctor postmortem, and require its top hypothesis to name
    the injected cause. Writes one ``incident.json`` per cause under
    the cause's drill directory."""
    from repro.resilience.faultplan import DOCTOR_KINDS, FaultEvent, FaultPlan

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    wanted = tuple(causes) if causes else DOCTOR_KINDS
    plan = FaultPlan([FaultEvent(kind=k) for k in wanted])
    results: List[dict] = []
    for event in plan.doctor_events():
        cause = event.kind
        case_root = root / cause
        case_root.mkdir(parents=True, exist_ok=True)
        injected = _DRILL_INJECTORS[cause](case_root)
        incident = diagnose(case_root)
        incident_path = case_root / "incident.json"
        write_incident(incident_path, incident)
        top = (incident["hypotheses"] or [{}])[0]
        ok = top.get("cause") == cause
        if cause == "shard-death" and ok:
            ok = top.get("subject") == injected.get("killed")
        chain_kinds = sorted({
            incident["evidence"][i]["kind"]
            for i in top.get("evidence", [])
            if 0 <= i < len(incident["evidence"])
        })
        results.append({
            "cause": cause,
            "injected": injected,
            "diagnosed": top.get("cause"),
            "subject": top.get("subject"),
            "confidence": top.get("confidence", 0.0),
            "evidence_kinds": chain_kinds,
            "evidence_chain_len": len(top.get("evidence", [])),
            "incident": str(incident_path),
            "ok": bool(ok and top.get("evidence")),
        })
    report = {
        "t": time.time(),
        "plan": plan.as_dicts(),
        "cases": results,
        "ok": bool(results) and all(c["ok"] for c in results),
    }
    if report_path is not None:
        atomic_write_text(Path(report_path),
                          json.dumps(report, indent=2) + "\n")
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cmd_doctor(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro doctor",
        description="Root-cause diagnosis over a spool or fabric root's "
        "telemetry (tsdb detections, fabric events, flight recorder, "
        "status facts).",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    live = sub.add_parser(
        "live", help="diagnose the recent window of a running root")
    live.add_argument("root", help="spool or fabric root directory")
    live.add_argument("--window", type=float, default=300.0,
                      help="seconds of history to consider")
    live.add_argument("--out", default=None,
                      help="also write incident.json here")

    post = sub.add_parser(
        "postmortem", help="diagnose everything the root retains")
    post.add_argument("root", help="spool or fabric root directory")
    post.add_argument("--out", default=None,
                      help="incident.json path (default ROOT/incident.json)")

    drill = sub.add_parser(
        "drill", help="closed-loop self-test: inject known causes, "
        "require the doctor to name each one")
    drill.add_argument("--root", default="doctor_drill",
                       help="working directory for the drill fleets")
    drill.add_argument("--causes", nargs="*", default=None,
                       choices=("shard-death", "worker-slowdown",
                                "cache-poison"),
                       help="subset of causes to inject (default: all)")
    drill.add_argument("--report", default=None,
                       help="write the drill report JSON here")

    args = parser.parse_args(argv)
    if args.mode == "drill":
        try:
            report = run_doctor_drill(args.root, causes=args.causes,
                                      report_path=args.report)
        except PerfError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for case in report["cases"]:
            verdict = "ok" if case["ok"] else "WRONG"
            print(f"{case['cause']:<18} -> diagnosed "
                  f"{case['diagnosed'] or 'nothing'} "
                  f"(subject {case['subject'] or '-'}, confidence "
                  f"{case['confidence']:.0%}, evidence "
                  f"{case['evidence_kinds']}) [{verdict}]")
            print(f"  incident: {case['incident']}")
        print("doctor drill: "
              + ("all causes named correctly"
                 if report["ok"] else "FAILED — see incidents"))
        return 0 if report["ok"] else 1

    window = args.window if args.mode == "live" else None
    incident = diagnose(args.root, window_s=window)
    print(format_incident(incident))
    out = args.out
    if args.mode == "postmortem" and out is None:
        out = str(Path(args.root) / "incident.json")
    if out:
        write_incident(out, incident)
        print(f"incident: {out}")
    if args.mode == "live":
        return 3 if incident["cause"] is not None else 0
    return 0
