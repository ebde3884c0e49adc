"""Stitch per-rank trace files into one cross-rank Chrome trace.

A production MPI job writes one trace file per rank; nothing in a
single file says which recv on rank 3 was caused by which send on rank
0. This module restores that story: :func:`write_rank_traces` splits a
recording into per-rank files (what a real per-rank writer would have
produced), and :func:`merge_traces` reads them back, gives every rank
its own ``pid`` (its own process group in the viewer), pairs the
send-side flow starts (``ph: "s"``) with the recv-side flow finishes
(``ph: "f"``) by flow id, and writes one merged trace in which the
viewer draws a message arrow for every matched pair.

The merge is also the audit: its stats report how many send/recv span
pairs exist, how many are connected by a complete flow, and the
connected fraction — the acceptance gate for causal-tracing coverage.
:func:`validate_chrome_trace` is the schema check both tests and the
CLI run over any produced trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.util.atomic import atomic_write_text
from repro.util.errors import PerfError

#: event keys every Chrome trace event must carry
REQUIRED_KEYS = frozenset({"name", "ph", "ts", "pid", "tid"})

#: the driver thread's timeline row in profile recordings (far above
#: any rank tid) — kept in its own per-"rank" file named ``driver``
DRIVER_LABEL = "driver"


def split_events_by_rank(
    events: Iterable[dict], num_ranks: int
) -> Dict[str, List[dict]]:
    """Partition one recording into per-rank event lists.

    Events on tids ``0..num_ranks-1`` (the scheduler pins rank threads
    there) belong to that rank; everything else (driver lane, worker
    threads) lands in the ``driver`` group. Metadata events follow
    their tid like any other event.
    """
    if num_ranks < 1:
        raise PerfError(f"num_ranks must be >= 1, got {num_ranks}")
    groups: Dict[str, List[dict]] = {str(r): [] for r in range(num_ranks)}
    groups[DRIVER_LABEL] = []
    for event in events:
        tid = event.get("tid", 0)
        key = str(tid) if isinstance(tid, int) and 0 <= tid < num_ranks else DRIVER_LABEL
        groups[key].append(event)
    return groups


def rank_trace_path(directory, label: str, prefix: str = "trace_rank") -> Path:
    return Path(directory) / f"{prefix}{label}.json"


def write_rank_traces(
    events: Iterable[dict],
    num_ranks: int,
    directory=".",
    prefix: str = "trace_rank",
) -> List[Path]:
    """Write one ``trace_rank<k>.json`` per rank (plus the driver file);
    returns the written paths in rank order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, group in split_events_by_rank(events, num_ranks).items():
        path = rank_trace_path(directory, label, prefix)
        atomic_write_text(path, json.dumps(group, indent=1) + "\n")
        paths.append(path)
    return paths


def _rank_label(path: Path, prefix: str) -> str:
    stem = path.stem
    return stem[len(prefix):] if stem.startswith(prefix) else stem


def merge_traces(
    paths: Sequence,
    out_path=None,
    prefix: str = "trace_rank",
) -> Tuple[List[dict], dict]:
    """Merge per-rank trace files into one cross-rank trace.

    Each input file becomes its own ``pid`` (numeric rank labels keep
    ``pid == rank``; other files get pids above every rank), gets a
    ``process_name`` metadata event, and contributes its events
    unchanged otherwise — timestamps are already comparable because
    per-rank tracers share one clock base. Flow starts and finishes
    are then paired by ``id``; an unpaired flow event is dropped from
    the merged output (a dangling arrow endpoint renders as viewer
    garbage) but counted in the stats.

    Returns ``(events, stats)`` and, when ``out_path`` is given, writes
    the merged trace there atomically.
    """
    if not paths:
        raise PerfError("merge_traces needs >= 1 per-rank trace file")
    per_file: List[Tuple[str, List[dict]]] = []
    empty_files = 0
    for p in paths:
        path = Path(p)
        try:
            text = path.read_text()
        except OSError as exc:
            raise PerfError(f"unreadable per-rank trace {path}: {exc}") from exc
        if not text.strip():
            # a rank that died before flushing leaves a zero-byte file;
            # its lane is simply empty in the merged view
            empty_files += 1
            per_file.append((_rank_label(path, prefix), []))
            continue
        try:
            events = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PerfError(f"unreadable per-rank trace {path}: {exc}") from exc
        if not isinstance(events, list):
            raise PerfError(f"per-rank trace {path} is not a JSON array")
        per_file.append((_rank_label(path, prefix), events))

    numeric = sorted(int(lbl) for lbl, _ in per_file if lbl.isdigit())
    next_pid = (numeric[-1] + 1) if numeric else 0
    merged: List[dict] = []
    starts: Dict[str, List[dict]] = {}
    finishes: Dict[str, List[dict]] = {}
    send_spans = 0
    recv_spans = 0
    for label, events in per_file:
        if label.isdigit():
            pid = int(label)
        else:
            pid = next_pid
            next_pid += 1
        merged.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"rank {label}" if label.isdigit() else label},
            }
        )
        for event in events:
            event = dict(event)
            event["pid"] = pid
            ph = event.get("ph")
            if ph == "s":
                starts.setdefault(str(event.get("id")), []).append(event)
            elif ph == "f":
                finishes.setdefault(str(event.get("id")), []).append(event)
            else:
                if ph == "X":
                    if event.get("name") == "comm.send":
                        send_spans += 1
                    elif event.get("name") == "comm.recv":
                        recv_spans += 1
                merged.append(event)

    matched = 0
    for flow_id, start_events in starts.items():
        finish_events = finishes.get(flow_id, [])
        pairs = min(len(start_events), len(finish_events))
        matched += pairs
        merged.extend(start_events[:pairs])
        merged.extend(finish_events[:pairs])
    total_starts = sum(len(v) for v in starts.values())
    total_finishes = sum(len(v) for v in finishes.values())
    unmatched_starts = total_starts - matched
    unmatched_finishes = total_finishes - matched
    merged.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))

    span_pairs = min(send_spans, recv_spans)
    stats = {
        "files": len(per_file),
        "empty_files": empty_files,
        "events": len(merged),
        "flow_pairs": matched,
        "unmatched_flow_events": unmatched_starts + unmatched_finishes,
        "unmatched_flow_starts": unmatched_starts,
        "unmatched_flow_finishes": unmatched_finishes,
        "send_spans": send_spans,
        "recv_spans": recv_spans,
        "connected_fraction": (matched / span_pairs) if span_pairs else 1.0,
    }
    if out_path is not None:
        atomic_write_text(out_path, json.dumps(merged, indent=1) + "\n")
    return merged, stats


def validate_chrome_trace(events: Iterable[dict]) -> List[str]:
    """Schema-check a trace-event list; returns the problems found.

    Checks the required keys on every event, ``dur`` on complete
    events, ``id`` on flow events, and that every flow id has both its
    start and its finish — the pairing contract
    :func:`merge_traces` guarantees for its own output.
    """
    problems: List[str] = []
    flow_starts: Dict[str, int] = {}
    flow_finishes: Dict[str, int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = REQUIRED_KEYS - set(event)
        if missing:
            problems.append(f"event {i} ({event.get('name')!r}): missing {sorted(missing)}")
        ph = event.get("ph")
        if ph == "X" and "dur" not in event:
            problems.append(f"event {i} ({event.get('name')!r}): complete event without dur")
        if ph in ("s", "f"):
            if "id" not in event:
                problems.append(f"event {i}: flow event without id")
            else:
                fid = str(event["id"])
                if ph == "s":
                    flow_starts[fid] = flow_starts.get(fid, 0) + 1
                else:
                    flow_finishes[fid] = flow_finishes.get(fid, 0) + 1
    for fid, n in flow_starts.items():
        if flow_finishes.get(fid, 0) != n:
            problems.append(
                f"flow id {fid}: {n} start(s) but {flow_finishes.get(fid, 0)} finish(es)"
            )
    for fid, n in flow_finishes.items():
        if fid not in flow_starts:
            problems.append(f"flow id {fid}: {n} finish(es) with no start")
    return problems
