"""``python -m repro serve`` / ``submit``: the service's CLI pair.

Two transports share one implementation:

* **in-process** — ``submit problem.ups problem.ups`` spins up a
  :class:`~repro.service.service.RadiationService` in this process,
  pushes the requests through the real submit path (cache, coalescing,
  batching, workers), prints per-request serving metadata, and can dump
  ``metrics.json`` / ``trace.json`` artifacts plus per-request ``divq``
  arrays;
* **spool** — ``serve --spool DIR`` runs a long-lived service that
  watches ``DIR/inbox`` for UPS files and writes results to
  ``DIR/outbox`` (``<name>.npz`` + ``<name>.json`` sidecar, temp-file +
  rename so readers never see partial writes); ``submit --spool DIR
  problem.ups`` drops requests into the inbox and waits for the
  results, giving a cross-process serve/submit pair with no network
  dependency.

Multiple serve processes may share one spool: each claims requests by
atomically renaming them into its own ``claimed/<shard-id>/``
directory (see :mod:`repro.service.spool`), so a request is solved by
exactly one shard no matter how many poll the inbox. The claimed file
survives until the result is published, which is what lets the fabric
supervisor re-home a killed shard's accepted work with zero loss.

Neither side sleeps: each blocks on a :class:`repro.service.spool.Bell`
for at most :func:`repro.service.spool.poll_delay` (a tenth of the time
already waited, 0.5–50 ms). ``submit`` holds its ticket's bell, which
the server's published result rings. ``serve`` holds ``<spool>/inbox.bell``,
which every request written into the inbox rings, and so does every
finished solve (its done-callback), so a request is claimed and a result
published when they happen, not at the next poll. ``status.json`` is
rewritten when what it reports changes, or every ``_STATUS_EVERY_S`` for
the heartbeat. A spool path that cannot be made a spool is an
``error:`` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import uuid
from pathlib import Path
from typing import Optional

from repro.perf import tracectx
from repro.perf.detect import default_bank
from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.perf.slo import format_status
from repro.perf.tracer import SpanTracer, set_tracer
from repro.perf.tsdb import (
    SnapshotCollector,
    TimeSeriesStore,
    flatten_status,
    format_history,
)
from repro.service.service import RadiationService, ServiceClient, ServiceConfig
from repro.service.spool import (
    Bell,
    claim_request,
    extract_ctx,
    inbox_bell,
    poll_delay,
    release_claims,
    wait_result,
    write_request,
    write_result,
)
from repro.ups import parse_ups
from repro.util.atomic import atomic_savez, atomic_write_text
from repro.util.errors import ReproError, ServiceError

#: status.json is republished at least this often while nothing it
#: reports changes — the heartbeat the fabric (death at 5 s) and the
#: supervisor (10 s) read staleness from
_STATUS_EVERY_S = 0.5


def _service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=2, help="worker shards")
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="solve execution backend",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk result-cache directory"
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache and in-flight coalescing",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.005,
        help="micro-batch coalescing window (seconds)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64, help="submission queue bound"
    )
    parser.add_argument(
        "--journal", default=None,
        help="write-ahead request journal directory; accepted-but-"
        "unfinished solves are replayed on the next start",
    )
    parser.add_argument("--metrics", default=None, help="write metrics.json here")
    parser.add_argument("--trace", default=None, help="write Chrome trace here")


def _build_config(args, fault_hook=None) -> ServiceConfig:
    return ServiceConfig(
        max_queue=args.max_queue,
        workers=args.workers,
        backend=args.backend,
        batch_window_s=args.batch_window,
        cache_capacity=0 if args.no_cache else 128,
        cache_dir=None if args.no_cache else args.cache_dir,
        coalesce=not args.no_cache,
        journal_dir=args.journal,
        fault_hook=fault_hook,
    )


def _slowdown_hook(delay_s: float, after: int):
    """A fault hook that sleeps ``delay_s`` inside every solve attempt
    past the first ``after`` — the doctor drill's "one worker went
    slow" cause, injected where a real regression would land (the
    solve path), so latency quantiles drift while nothing dies."""
    state = {"n": 0}

    def hook(fingerprint: str, attempt: int) -> None:
        state["n"] += 1
        if state["n"] > after:
            time.sleep(delay_s)

    return hook


def _install_observability(args):
    """Fresh registry (+ enabled tracer when asked) as process defaults."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    tracer = SpanTracer(enabled=args.trace is not None)
    set_tracer(tracer)
    return metrics, tracer


def _write_observability(args, metrics, tracer) -> None:
    if args.metrics:
        metrics.write(args.metrics)
        print(f"metrics: {args.metrics}")
    if args.trace:
        tracer.write(args.trace)
        print(f"trace:   {args.trace}")


def _result_line(name: str, result) -> str:
    served = "cache-hit" if result.cache_hit else (
        "coalesced" if result.coalesced else f"worker {result.worker}"
    )
    return (
        f"{name:<28} {result.fingerprint[:12]}  {served:<10} "
        f"batch={result.batch_size} attempts={result.attempts} "
        f"latency={result.latency_s * 1e3:8.1f} ms  "
        f"divq mean {result.divq.mean():.4f}"
    )


# ----------------------------------------------------------------------
# submit
# ----------------------------------------------------------------------
def cmd_submit(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit UPS solves to the radiation service.",
    )
    parser.add_argument("ups", nargs="+", help="UPS input file(s); repeats allowed")
    parser.add_argument(
        "--repeat", type=int, default=1, help="submit the file list N times"
    )
    parser.add_argument(
        "--burst", action="store_true",
        help="submit everything before waiting (exercises coalescing) "
        "instead of one request at a time (exercises the cache)",
    )
    parser.add_argument(
        "--spool", default=None,
        help="submit through a spool directory served by 'repro serve'",
    )
    parser.add_argument(
        "--out", default=None, help="directory for per-request divq .npz files"
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait: for each request in-process, for the "
        "whole list (one deadline) through --spool",
    )
    _service_args(parser)
    args = parser.parse_args(argv)
    names = [Path(p) for p in args.ups] * max(1, args.repeat)

    if args.spool is not None:
        return _submit_spool(args, names)

    metrics, tracer = _install_observability(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        specs = [parse_ups(str(p)) for p in names]
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    with ServiceClient(_build_config(args), metrics=metrics, tracer=tracer) as client:
        try:
            if args.burst:
                results = client.solve_many(specs, timeout=args.timeout)
            else:
                results = [
                    client.solve(spec, timeout=args.timeout) for spec in specs
                ]
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        wall = time.perf_counter() - t0
        for i, (path, result) in enumerate(zip(names, results)):
            print(_result_line(path.name, result))
            if out_dir:
                atomic_savez(
                    out_dir / f"{i:03d}_{path.stem}.npz", divq=result.divq
                )
        stats = client.service.stats()
    hits = stats["cache_hits_memory"] + stats["cache_hits_disk"]
    print(
        f"\n{len(results)} request(s) in {wall:.2f} s "
        f"({len(results) / wall:.1f} req/s): {stats['solves']:.0f} solve(s), "
        f"{hits:.0f} cache hit(s), {stats['coalesced']:.0f} coalesced"
    )
    _write_observability(args, metrics, tracer)
    return 0


def _submit_spool(args, names) -> int:
    spool = Path(args.spool)
    inbox, outbox = spool / "inbox", spool / "outbox"
    tickets = []
    try:
        inbox.mkdir(parents=True, exist_ok=True)
        outbox.mkdir(parents=True, exist_ok=True)
        for i, path in enumerate(names):
            text = path.read_text()
            ticket = f"{i:03d}-{path.stem}-{uuid.uuid4().hex[:8]}"
            # the request carries the submitter's trace context in-band, so
            # router, shard, and worker spans all join this client's trace
            write_request(inbox, ticket, text, ctx=tracectx.child_or_new())
            tickets.append((path.name, ticket))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + args.timeout
    failures = 0
    for name, ticket in tickets:
        try:
            meta = wait_result(outbox, ticket, deadline)
        except OSError as exc:  # no bell can be made in the outbox
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if meta is None:
            print(f"error: no result for {name} ({ticket})", file=sys.stderr)
            return 1
        if meta.get("error"):
            print(f"{name:<28} FAILED: {meta['error']}")
            failures += 1
            continue
        print(
            f"{name:<28} {meta['fingerprint'][:12]}  "
            f"{'cache-hit' if meta['cache_hit'] else 'solved':<10} "
            f"latency={meta['latency_s'] * 1e3:8.1f} ms  "
            f"result={outbox / (ticket + '.npz')}"
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def cmd_serve(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve radiation solves from a spool directory.",
    )
    parser.add_argument("--spool", required=True, help="spool directory")
    parser.add_argument(
        "--idle-timeout", type=float, default=10.0,
        help="exit after this many seconds with nothing claimed or settled",
    )
    parser.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after serving this many requests",
    )
    parser.add_argument(
        "--tsdb-interval", type=float, default=1.0,
        help="seconds between tsdb history samples (0 disables)",
    )
    parser.add_argument(
        "--tsdb-retention", type=int, default=2048,
        help="samples retained per rank in the spool tsdb",
    )
    parser.add_argument(
        "--shard-id", default="shard0",
        help="this consumer's identity; claims land in "
        "claimed/<shard-id>/ so multiple shards may share one inbox "
        "(give each a distinct id)",
    )
    parser.add_argument(
        "--stop-file", default=None,
        help="exit gracefully (drain outstanding, claim nothing new) "
        "once this file exists (default: <spool>/serve.stop)",
    )
    parser.add_argument(
        "--inject-slowdown", type=float, default=0.0, metavar="SECONDS",
        help="fault injection for the doctor drill: sleep this long "
        "inside every solve attempt (after --inject-slowdown-after "
        "warmup solves)",
    )
    parser.add_argument(
        "--inject-slowdown-after", type=int, default=0, metavar="N",
        help="number of solves served at full speed before the "
        "injected slowdown kicks in (gives drift detectors a baseline)",
    )
    _service_args(parser)
    args = parser.parse_args(argv)

    spool = Path(args.spool)
    inbox, outbox = spool / "inbox", spool / "outbox"
    claim_dir = spool / "claimed" / args.shard_id
    try:
        for directory in (inbox, outbox, claim_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # rung by every request written into the inbox and by every
        # finished solve; a ring during a pass stays in the pipe, so the
        # next wait returns at once and no wake-up is lost
        bell = Bell(inbox_bell(inbox))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stop_file = Path(args.stop_file) if args.stop_file else spool / "serve.stop"
    metrics, tracer = _install_observability(args)

    served = 0
    outstanding = []  # (ticket, handle, claimed_path)
    passes = metrics.counter("service.spool.passes")
    rung = metrics.counter("service.spool.rung")
    print(f"serving from {spool} as {args.shard_id} "
          f"(idle timeout {args.idle_timeout}s)")
    fault_hook = None
    if args.inject_slowdown > 0:
        fault_hook = _slowdown_hook(
            args.inject_slowdown, args.inject_slowdown_after
        )
        print(f"fault injection: +{args.inject_slowdown}s per solve "
              f"after {args.inject_slowdown_after} warmup solve(s)")
    config = _build_config(args, fault_hook=fault_hook)
    with bell, RadiationService(config, metrics=metrics, tracer=tracer) as svc:
        client = ServiceClient(svc)
        # metrics history: one collector sampling the registry plus the
        # SLO snapshot into spool/tsdb on a cadence; samples accumulate
        # across serve restarts (append-only, ring-retained)
        collector = None
        bank = None
        if args.tsdb_interval > 0:
            store = TimeSeriesStore(
                spool / "tsdb", rank=0, retention=args.tsdb_retention
            )
            collector = SnapshotCollector(
                store,
                registry=metrics,
                interval_s=args.tsdb_interval,
                extra=lambda: flatten_status(svc.slo.snapshot()),
            )
            # streaming anomaly detectors ride the collector cadence:
            # each tsdb sample also flows through the detector bank,
            # and active detections publish with the status document
            bank = default_bank("serve")
        # warm restart, part 1: requests this shard claimed but never
        # answered before a crash go back to the inbox (to be
        # re-claimed below, possibly by a sibling shard)
        reclaimed = release_claims(claim_dir, inbox)
        if reclaimed:
            print(f"warm restart: {reclaimed} claimed request(s) "
                  "released back to the inbox")
        if svc.journal is not None:
            recovered = svc.recover_journal()
            if recovered["cache_preloaded"] or recovered["replayed"]:
                print(
                    f"warm restart: {recovered['cache_preloaded']} cached "
                    f"result(s) preloaded, {recovered['replayed']} journaled "
                    "solve(s) replayed"
                )
            for handle in recovered["handles"]:
                handle.result(timeout=args.idle_timeout + 300.0)
        stopping = False
        published = (None, 0.0)  # (what status.json last reported, when)
        # the last claim or settle: every wait of this loop, and its
        # idle timeout, is measured from here
        last_work = time.monotonic()
        while True:
            passes.inc()
            worked = False
            stopping = stopping or stop_file.exists()
            budget_left = not stopping and (
                args.max_requests is None or served < args.max_requests
            )
            if budget_left:
                for path in sorted(inbox.glob("*.ups")):
                    # atomic claim: exactly one shard wins the rename,
                    # so a shared inbox can never be double-solved
                    claimed_path = claim_request(path, claim_dir)
                    if claimed_path is None:
                        metrics.counter("service.spool.claim_races").inc()
                        continue
                    try:
                        raw = claimed_path.read_text()
                    except OSError:
                        continue  # pragma: no cover — claimed file vanished
                    metrics.counter("service.spool.claimed").inc()
                    ticket = claimed_path.stem
                    text, ctx = extract_ctx(raw)
                    try:
                        # enter the submitter's trace so the request's
                        # queue/batcher/worker spans share its trace_id
                        with tracectx.use(ctx):
                            handle = client.submit(text)
                    except (ReproError, OSError) as exc:
                        write_result(outbox, ticket, error=str(exc))
                        _settle_claim(claimed_path)
                        print(f"{ticket}: rejected ({exc})")
                        worked = True
                        continue
                    handle.add_done_callback(bell.ring)
                    outstanding.append((ticket, handle, claimed_path))
                    worked = True
                    served += 1
                    if args.max_requests is not None and served >= args.max_requests:
                        break
            still_waiting = []
            for ticket, handle, claimed_path in outstanding:
                if not handle.done():
                    still_waiting.append((ticket, handle, claimed_path))
                    continue
                worked = True
                try:
                    result = handle.result(timeout=0)
                except ServiceError as exc:
                    write_result(outbox, ticket, error=str(exc))
                    _settle_claim(claimed_path)
                    print(f"{ticket}: FAILED ({exc})")
                    continue
                write_result(outbox, ticket, result=result)
                _settle_claim(claimed_path)
                print(_result_line(ticket, result))
            outstanding = still_waiting
            now = time.monotonic()
            if worked:
                last_work = now
            done_budget = args.max_requests is not None and served >= args.max_requests
            if collector is not None:
                record = collector.maybe_sample(
                    served=served, outstanding=len(outstanding)
                )
                if record is not None:
                    bank.observe(record)
            # live status snapshot: the SLO document plus shard
            # identity and a heartbeat timestamp, atomically
            # republished when what it reports changes (a detection
            # leaves only by ageing out, which the cadence catches) and
            # every _STATUS_EVERY_S otherwise — the fabric supervisor
            # reads heartbeat staleness from here to detect shard death
            reported = (
                served, len(outstanding), stopping,
                bank.emitted if bank is not None else 0,
            )
            if reported != published[0] or now - published[1] >= _STATUS_EVERY_S:
                _publish_status(
                    spool, svc, args.shard_id, served, len(outstanding),
                    inbox, claim_dir, bank=bank,
                )
                published = (reported, now)
            if not outstanding and (
                stopping or done_budget or now - last_work > args.idle_timeout
            ):
                break
            if bell.wait(poll_delay(time.monotonic() - last_work)):
                rung.inc()
        if collector is not None:
            record = collector.sample(served=served, outstanding=len(outstanding))
            bank.observe(record)
        _publish_status(
            spool, svc, args.shard_id, served, len(outstanding),
            inbox, claim_dir, exited=True, bank=bank,
        )
        stats = svc.stats()
    hits = stats["cache_hits_memory"] + stats["cache_hits_disk"]
    print(
        f"served {served} request(s): {stats['solves']:.0f} solve(s), "
        f"{hits:.0f} cache hit(s), {stats['coalesced']:.0f} coalesced"
    )
    _write_observability(args, metrics, tracer)
    return 0


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
def cmd_status(argv) -> int:
    """Render the SLO dashboard from a published status.json."""
    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Show service SLO status (latency quantiles, error "
        "budget, degradation) from a serve run's status.json.",
    )
    parser.add_argument(
        "--spool", default=None,
        help="spool directory of a 'repro serve' run (reads its status.json)",
    )
    parser.add_argument(
        "--file", default=None, help="explicit status.json path"
    )
    parser.add_argument(
        "--fabric", default=None,
        help="fabric root directory: aggregate every shard's "
        "status.json (the worst shard's verdict drives the exit code)",
    )
    parser.add_argument(
        "--watch", action="store_true", help="refresh continuously"
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="refresh period (seconds)"
    )
    parser.add_argument(
        "--max-refreshes", type=int, default=None,
        help="stop --watch after N refreshes (default: run until ^C)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="render sparkline history from the spool's tsdb (implied "
        "by --watch when the tsdb exists)",
    )
    parser.add_argument(
        "--history-width", type=int, default=32,
        help="sparkline width (samples shown per series)",
    )
    args = parser.parse_args(argv)
    given = [o for o in (args.spool, args.file, args.fabric) if o is not None]
    if len(given) != 1:
        print("error: give exactly one of --spool, --file, or --fabric",
              file=sys.stderr)
        return 2
    if args.fabric is not None:
        return _status_fabric(args)
    path = Path(args.file) if args.file else Path(args.spool) / "status.json"
    tsdb_dir = Path(args.spool) / "tsdb" if args.spool else None

    def history_block() -> Optional[str]:
        if tsdb_dir is None:
            return "history: (needs --spool; --file has no tsdb)" if args.history else None
        store_path = tsdb_dir / "tsdb_rank0.jsonl"
        if not store_path.exists():
            return "history: (no tsdb samples yet)" if args.history else None
        if not (args.history or args.watch):
            return None
        store = TimeSeriesStore(tsdb_dir, rank=0)
        return format_history(store, width=args.history_width)

    refreshes = 0
    while True:
        try:
            snapshot = json.loads(path.read_text())
        except FileNotFoundError:
            print(f"error: no status file at {path} (is serve running?)",
                  file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"error: unreadable status file {path}: {exc}", file=sys.stderr)
            return 1
        print(format_status(snapshot))
        detect_block = _format_detections(snapshot)
        if detect_block:
            print(detect_block)
        history = history_block()
        if history is not None:
            print(history)
        refreshes += 1
        if not args.watch:
            return _status_exit(snapshot)
        if args.max_refreshes is not None and refreshes >= args.max_refreshes:
            return _status_exit(snapshot)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        print()


def _format_detections(snapshot: dict) -> Optional[str]:
    """Active anomaly detections (and any published incident) from a
    status document, one DETECT line each."""
    detect = snapshot.get("detections") or {}
    active = detect.get("active") or []
    lines = [
        f"  DETECT [{d.get('severity', '?').upper()}]: {d.get('message')}"
        for d in active
    ]
    incident = snapshot.get("incident")
    if incident and incident.get("hypotheses"):
        top = incident["hypotheses"][0]
        lines.append(
            f"  INCIDENT: {top.get('cause')} "
            f"({top.get('subject') or 'service'}) "
            f"confidence {top.get('confidence', 0):.0%}"
        )
    return "\n".join(lines) if lines else None


def _status_exit(snapshot: dict) -> int:
    """Exit-code verdict: the SLO degraded flag and the worst active
    detection severity both count — a shard that still meets its SLOs
    while a detector screams critical is already an incident."""
    detect = snapshot.get("detections") or {}
    if snapshot.get("degraded") or detect.get("worst") == "critical":
        return 3
    return 0


def _status_fabric(args) -> int:
    """Fleet-wide dashboard: aggregate every shard's status.json under
    a fabric root. Exit 3 when the worst shard is degraded (or dead),
    mirroring the single-spool contract."""
    from repro.fabric.fabric import aggregate_status, format_fleet  # repro: allow(layer-violation) status --fabric only

    refreshes = 0
    while True:
        doc = aggregate_status(Path(args.fabric))
        print(format_fleet(doc))
        refreshes += 1
        done = not args.watch or (
            args.max_refreshes is not None and refreshes >= args.max_refreshes
        )
        if done:
            return 0 if doc["state"] == "ok" else 3
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        print()


def _settle_claim(claimed_path: Path) -> None:
    """Drop a claimed request file once its result is published — from
    here on the outbox, not the claim, is the record of the request."""
    try:
        claimed_path.unlink()
    except OSError:
        pass


def _publish_status(
    spool: Path,
    svc: RadiationService,
    shard_id: str,
    served: int,
    outstanding: int,
    inbox: Path,
    claim_dir: Path,
    exited: bool = False,
    bank=None,
) -> None:
    """Atomically publish the shard's status.json: the SLO snapshot
    plus shard identity, queue depths, active anomaly detections, and
    a wall-clock heartbeat."""
    doc = svc.slo.snapshot()
    doc["heartbeat_t"] = time.time()
    if bank is not None:
        doc["detections"] = bank.as_dict()
    doc["shard"] = {
        "shard_id": shard_id,
        "pid": os.getpid(),
        "served": served,
        "outstanding": outstanding,
        "inbox_depth": sum(1 for _ in inbox.glob("*.ups")),
        "claimed_depth": sum(1 for _ in claim_dir.glob("*.ups")),
        "exited": exited,
        "stats": svc.stats(),
    }
    atomic_write_text(spool / "status.json", json.dumps(doc, indent=2) + "\n")
    svc.metrics.counter("service.spool.status_published").inc()
