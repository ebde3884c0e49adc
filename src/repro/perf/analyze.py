"""Trace analytics: critical path, wait attribution, speedup bounds.

The raw observability artifacts (merged cross-rank traces from
:mod:`repro.perf.merge`, simulated timelines from
:mod:`repro.dessim.tracesim`) answer *what happened*; this module
answers *where the lost efficiency went* — the question behind the
paper's Figures 2–3 scaling story. Given a trace-event recording it
builds a cross-rank span DAG (program order within each rank lane plus
the send→recv flow edges the merge paired by message id) and extracts:

* the **critical path** — the longest dependency chain of spans,
  walked backwards from the last span to finish, always choosing the
  predecessor whose completion gated the current span's start. Spans
  on the path are time-disjoint, so the sum of their durations is a
  valid **lower bound on the makespan** of any schedule of the same
  work — the speedup-bound estimate reported against the measured
  E11 scaling curves;
* **wall-clock attribution** — every rank's measured wall-clock split
  into ``compute`` (task spans), ``comm_wait`` (comm.send/comm.recv
  spans), and ``idle`` (the remainder). The three buckets must sum to
  the measured wall-clock; a negative residual means spans overlapped
  and the attribution is lying, which :func:`analyze_events` flags;
* **top-K bottlenecks** — the tasks and ranks carrying the most time,
  ranked by total busy seconds.

``python -m repro analyze`` (see :func:`cmd_analyze`) runs the
analysis over an existing trace file, a fresh profile→merge pipeline,
or a tracesim run, and writes ``analysis_report.json`` — the artifact
the CI smoke step gates on and the input the SLO autoscaler and
task-graph optimizer roadmap items will read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import PerfError

#: span categories that count as compute work
TASK_CATS = frozenset({"task", "sim.task"})

#: span names that count as communication wait (the Figure 1 quantity)
COMM_PREFIX = "comm."

#: attribution buckets must sum to wall-clock within this fraction
ATTRIBUTION_TOLERANCE = 0.01


@dataclass
class SpanNode:
    """One complete ("X") event, normalized into the DAG."""

    index: int
    name: str
    lane: Tuple[int, int]  # (pid, tid)
    rank: int
    start: float           # µs, trace clock
    dur: float
    cat: str = ""
    args: dict = field(default_factory=dict)
    #: indices of message-edge predecessors (flow sources)
    msg_preds: List[int] = field(default_factory=list)
    #: index of the previous span on the same lane (program order)
    lane_pred: Optional[int] = None

    @property
    def end(self) -> float:
        return self.start + self.dur

    @property
    def is_comm(self) -> bool:
        return self.name.startswith(COMM_PREFIX)


@dataclass
class SpanDag:
    """The cross-rank span DAG plus the flow-edge bookkeeping."""

    nodes: List[SpanNode]
    ranks: List[int]
    msg_edges: int
    unbound_flows: int


def _lane_rank(pid: int, tid: int, multi_pid: bool) -> int:
    """A lane's rank id: merged traces carry one pid per rank file
    (pid == rank); single-pid recordings (tracesim export, an unmerged
    profile) pin rank threads to tid == rank."""
    return int(pid) if multi_pid else int(tid)


def build_span_dag(events: Iterable[dict]) -> SpanDag:
    """Normalize a trace-event list into the cross-rank span DAG.

    Only *rank lanes* — (pid, tid) rows containing at least one task
    span — participate: the driver lane's envelope spans (``profile``,
    ``timestep N``) cover the whole run and would swallow both the
    attribution and the critical path. Within a lane, spans nested
    inside another span are dropped (rank lanes record disjoint spans
    by construction; nesting would double-count attribution).

    Flow edges: each ``ph: "s"`` is bound to the lane span enclosing
    (or last ending before) it, each ``ph: "f"`` to the span enclosing
    it, or — for simulated flows that arrive between spans — the span
    its ``args.dtask_id`` names, else the first span starting at or
    after the arrival. An edge is only added when the source span ends
    no later than the destination span starts, which is what keeps the
    critical path a valid lower bound.
    """
    by_lane: Dict[Tuple[int, int], List[dict]] = {}
    flow_starts: Dict[str, List[dict]] = {}
    flow_finishes: Dict[str, List[dict]] = {}
    pids = set()
    for e in events:
        ph = e.get("ph")
        if ph not in ("X", "s", "f"):
            continue
        lane = (int(e.get("pid", 0)), int(e.get("tid", 0)))
        pids.add(lane[0])
        if ph == "X":
            by_lane.setdefault(lane, []).append(e)
        elif ph == "s":
            flow_starts.setdefault(str(e.get("id")), []).append(e)
        else:
            flow_finishes.setdefault(str(e.get("id")), []).append(e)

    multi_pid = len(pids) > 1
    nodes: List[SpanNode] = []
    lane_nodes: Dict[Tuple[int, int], List[SpanNode]] = {}
    ranks: List[int] = []
    for lane, lane_events in sorted(by_lane.items()):
        if not any(e.get("cat") in TASK_CATS for e in lane_events):
            continue  # driver / worker lane: not a rank timeline
        rank = _lane_rank(*lane, multi_pid=multi_pid)
        ranks.append(rank)
        lane_events.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
        kept: List[SpanNode] = []
        open_end = -1.0
        for e in lane_events:
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
            if ts + dur <= open_end + 1e-9 and kept:
                continue  # nested inside the previous kept span
            node = SpanNode(
                index=len(nodes),
                name=str(e.get("name", "?")),
                lane=lane,
                rank=rank,
                start=ts,
                dur=dur,
                cat=str(e.get("cat", "")),
                args=dict(e.get("args") or {}),
            )
            if kept:
                node.lane_pred = kept[-1].index
            kept.append(node)
            nodes.append(node)
            open_end = max(open_end, ts + dur)
        lane_nodes[lane] = kept

    def bind_source(ev: dict) -> Optional[SpanNode]:
        lane = (int(ev.get("pid", 0)), int(ev.get("tid", 0)))
        spans = lane_nodes.get(lane)
        if not spans:
            return None
        ts = float(ev.get("ts", 0.0))
        best = None
        for s in spans:
            if s.start <= ts <= s.end + 1e-9:
                return s
            if s.end <= ts + 1e-9:
                best = s  # latest span ending before the departure
            else:
                break
        return best

    def bind_dest(ev: dict) -> Optional[SpanNode]:
        lane = (int(ev.get("pid", 0)), int(ev.get("tid", 0)))
        spans = lane_nodes.get(lane)
        if not spans:
            return None
        ts = float(ev.get("ts", 0.0))
        wanted = (ev.get("args") or {}).get("dtask_id")
        for s in spans:
            if s.start <= ts <= s.end + 1e-9:
                return s
        if wanted is not None:
            for s in spans:
                if s.args.get("dtask_id") == wanted and s.start >= ts - 1e-9:
                    return s
        for s in spans:
            if s.start >= ts - 1e-9:
                return s  # first span that could have consumed the message
        return None

    msg_edges = 0
    unbound = 0
    for fid, starts in flow_starts.items():
        finishes = flow_finishes.get(fid, [])
        for s_ev, f_ev in zip(starts, finishes):
            src = bind_source(s_ev)
            dst = bind_dest(f_ev)
            if src is None or dst is None or src.index == dst.index:
                unbound += 1
                continue
            # only time-consistent edges keep the bound valid
            if src.end <= dst.start + 1e-9:
                dst.msg_preds.append(src.index)
                msg_edges += 1
            else:
                unbound += 1
    return SpanDag(
        nodes=nodes, ranks=sorted(set(ranks)), msg_edges=msg_edges,
        unbound_flows=unbound,
    )


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def critical_path(dag: SpanDag) -> List[SpanNode]:
    """Walk back from the last span to finish, always stepping to the
    predecessor (message source or lane predecessor) whose completion
    was the *latest* — the one that actually gated the span's start.
    Returns the chain oldest-first; spans on it are pairwise
    time-disjoint by construction."""
    if not dag.nodes:
        return []
    by_index = {n.index: n for n in dag.nodes}
    cur = max(dag.nodes, key=lambda n: n.end)
    path = [cur]
    seen = {cur.index}
    while True:
        candidates: List[SpanNode] = []
        if cur.lane_pred is not None:
            candidates.append(by_index[cur.lane_pred])
        candidates.extend(by_index[i] for i in cur.msg_preds)
        candidates = [
            c for c in candidates
            if c.index not in seen and c.end <= cur.start + 1e-9
        ]
        if not candidates:
            break
        cur = max(candidates, key=lambda c: c.end)
        seen.add(cur.index)
        path.append(cur)
    path.reverse()
    return path


def _path_summary(path: Sequence[SpanNode], top_k: int) -> dict:
    work = sum(n.dur for n in path)
    elapsed = (path[-1].end - path[0].start) if path else 0.0
    contributions: Dict[str, Dict[str, float]] = {}
    for n in path:
        c = contributions.setdefault(n.name, {"seconds": 0.0, "count": 0})
        c["seconds"] += n.dur / 1e6
        c["count"] += 1
    ranked = sorted(
        (
            {
                "name": name,
                "seconds": c["seconds"],
                "count": int(c["count"]),
                "share": (c["seconds"] * 1e6 / work) if work else 0.0,
            }
            for name, c in contributions.items()
        ),
        key=lambda d: -d["seconds"],
    )
    return {
        "work_s": work / 1e6,
        "elapsed_s": elapsed / 1e6,
        "wait_s": max(0.0, elapsed - work) / 1e6,
        "spans": len(path),
        "contributions": ranked[:top_k],
        "chain": [
            {
                "name": n.name,
                "rank": n.rank,
                "start_s": n.start / 1e6,
                "dur_s": n.dur / 1e6,
            }
            for n in path
        ],
    }


# ----------------------------------------------------------------------
# wall-clock attribution
# ----------------------------------------------------------------------
def attribute_wallclock(dag: SpanDag, tolerance: float = ATTRIBUTION_TOLERANCE) -> dict:
    """Split every rank's measured wall-clock into compute / comm-wait
    / idle buckets. The window is the global [first span start, last
    span end] across rank lanes, so each rank's buckets sum to the same
    measured wall-clock. ``idle`` is the remainder; a negative
    remainder (overlapping spans — double-counted work) beyond
    ``tolerance`` flags the attribution invalid."""
    if not dag.nodes:
        return {
            "wall_s": 0.0, "per_rank": [], "tolerance": tolerance,
            "max_residual_frac": 0.0, "buckets_sum_ok": True,
        }
    t0 = min(n.start for n in dag.nodes)
    t1 = max(n.end for n in dag.nodes)
    wall = t1 - t0
    per_rank: Dict[int, Dict[str, float]] = {
        r: {"compute": 0.0, "comm": 0.0} for r in dag.ranks
    }
    for n in dag.nodes:
        if n.is_comm:
            per_rank[n.rank]["comm"] += n.dur
        else:
            per_rank[n.rank]["compute"] += n.dur
    rows = []
    max_residual = 0.0
    for rank in dag.ranks:
        busy = per_rank[rank]
        idle = wall - busy["compute"] - busy["comm"]
        residual = min(0.0, idle)  # overshoot: buckets exceed the wall
        max_residual = max(max_residual, -residual)
        rows.append(
            {
                "rank": rank,
                "wall_s": wall / 1e6,
                "compute_s": busy["compute"] / 1e6,
                "comm_wait_s": busy["comm"] / 1e6,
                "idle_s": max(0.0, idle) / 1e6,
                "residual_s": residual / 1e6,
                "compute_frac": busy["compute"] / wall if wall else 0.0,
                "comm_wait_frac": busy["comm"] / wall if wall else 0.0,
                "idle_frac": max(0.0, idle) / wall if wall else 0.0,
            }
        )
    max_residual_frac = (max_residual / wall) if wall else 0.0
    return {
        "wall_s": wall / 1e6,
        "window_start_s": t0 / 1e6,
        "window_end_s": t1 / 1e6,
        "per_rank": rows,
        "tolerance": tolerance,
        "max_residual_frac": max_residual_frac,
        "buckets_sum_ok": max_residual_frac <= tolerance,
    }


# ----------------------------------------------------------------------
# bottlenecks & bounds
# ----------------------------------------------------------------------
def _bottlenecks(dag: SpanDag, top_k: int) -> dict:
    tasks: Dict[str, Dict[str, float]] = {}
    ranks: Dict[int, Dict[str, float]] = {
        r: {"busy": 0.0, "comm": 0.0, "finish": 0.0} for r in dag.ranks
    }
    for n in dag.nodes:
        t = tasks.setdefault(n.name, {"seconds": 0.0, "count": 0, "max": 0.0})
        t["seconds"] += n.dur / 1e6
        t["count"] += 1
        t["max"] = max(t["max"], n.dur / 1e6)
        r = ranks[n.rank]
        r["busy"] += n.dur / 1e6
        if n.is_comm:
            r["comm"] += n.dur / 1e6
        r["finish"] = max(r["finish"], n.end / 1e6)
    task_rows = sorted(
        (
            {
                "name": name,
                "total_s": t["seconds"],
                "count": int(t["count"]),
                "mean_s": t["seconds"] / t["count"] if t["count"] else 0.0,
                "max_s": t["max"],
            }
            for name, t in tasks.items()
        ),
        key=lambda d: -d["total_s"],
    )
    rank_rows = sorted(
        (
            {
                "rank": rank,
                "busy_s": r["busy"],
                "comm_wait_s": r["comm"],
                "finish_s": r["finish"],
            }
            for rank, r in ranks.items()
        ),
        key=lambda d: -d["busy_s"],
    )
    return {"tasks": task_rows[:top_k], "ranks": rank_rows[:top_k]}


def analyze_events(
    events: Iterable[dict],
    top_k: int = 5,
    source: str = "<events>",
    tolerance: float = ATTRIBUTION_TOLERANCE,
) -> dict:
    """The full analysis of one trace-event recording.

    Returns the ``analysis_report.json`` document: critical path,
    attribution, bottlenecks, and the work/span speedup bounds. Raises
    :class:`PerfError` when the trace holds no rank task spans — an
    empty analysis would read as "nothing is wrong".
    """
    dag = build_span_dag(events)
    if not dag.nodes:
        raise PerfError(f"{source}: no rank task spans to analyze")
    path = critical_path(dag)
    attribution = attribute_wallclock(dag, tolerance=tolerance)
    makespan = attribution["wall_s"]
    path_summary = _path_summary(path, top_k)
    total_work = sum(n.dur for n in dag.nodes) / 1e6
    cp_work = path_summary["work_s"]
    return {
        "schema": 1,
        "source": source,
        "ranks": len(dag.ranks),
        "spans": len(dag.nodes),
        "flow_edges": dag.msg_edges,
        "unbound_flows": dag.unbound_flows,
        "makespan_s": makespan,
        "critical_path": path_summary,
        "attribution": attribution,
        "bottlenecks": _bottlenecks(dag, top_k),
        "speedup_bound": {
            "total_work_s": total_work,
            "critical_path_s": cp_work,
            # work/span law: no schedule of this DAG beats the span
            "max_speedup": (total_work / cp_work) if cp_work else 1.0,
            "achieved_speedup": (total_work / makespan) if makespan else 1.0,
            # how much faster a perfect schedule could still go
            "headroom": (makespan / cp_work) if cp_work else 1.0,
            "bound_holds": cp_work <= makespan * (1.0 + 1e-6),
        },
    }


def analyze_trace(path, top_k: int = 5, tolerance: float = ATTRIBUTION_TOLERANCE) -> dict:
    """Analyze a trace-event JSON file (merged profile or tracesim)."""
    p = Path(path)
    try:
        events = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PerfError(f"unreadable trace {p}: {exc}") from exc
    if not isinstance(events, list):
        raise PerfError(f"trace {p} is not a JSON event array")
    return analyze_events(events, top_k=top_k, source=str(p), tolerance=tolerance)


def write_report(report: dict, path) -> Path:
    from repro.util.atomic import atomic_write_text

    out = Path(path)
    atomic_write_text(out, json.dumps(report, indent=2) + "\n")
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_analysis(report: dict) -> str:
    """The terminal report for ``python -m repro analyze``."""
    cp = report["critical_path"]
    sb = report["speedup_bound"]
    att = report["attribution"]
    lines = [
        f"analyze: {report['spans']} spans on {report['ranks']} rank(s), "
        f"{report['flow_edges']} message edge(s)  [{report['source']}]",
        f"  makespan {report['makespan_s'] * 1e3:.3f} ms, critical path "
        f"{sb['critical_path_s'] * 1e3:.3f} ms "
        f"({cp['spans']} spans, wait {cp['wait_s'] * 1e3:.3f} ms) "
        f"-> headroom {sb['headroom']:.2f}x, max speedup {sb['max_speedup']:.2f}x "
        f"(achieved {sb['achieved_speedup']:.2f}x)",
    ]
    if not sb["bound_holds"]:
        lines.append("  WARNING: critical path exceeds makespan (invalid bound)")
    lines.append("  critical-path contributions:")
    for c in cp["contributions"]:
        lines.append(
            f"    {c['name']:<28} {c['seconds'] * 1e3:>9.3f} ms "
            f"({c['share']:>5.1%}, {c['count']} span(s))"
        )
    lines.append(
        f"  wall-clock attribution ({att['wall_s'] * 1e3:.3f} ms window, "
        f"max residual {att['max_residual_frac']:.2%}"
        f"{', OK' if att['buckets_sum_ok'] else ', VIOLATED'}):"
    )
    lines.append(
        f"    {'rank':>6} {'compute':>10} {'comm-wait':>10} {'idle':>10}"
    )
    for row in att["per_rank"]:
        lines.append(
            f"    {row['rank']:>6} {row['compute_frac']:>9.1%} "
            f"{row['comm_wait_frac']:>9.1%} {row['idle_frac']:>9.1%}"
        )
    bn = report["bottlenecks"]
    lines.append("  top tasks by total time:")
    for t in bn["tasks"]:
        lines.append(
            f"    {t['name']:<28} {t['total_s'] * 1e3:>9.3f} ms total "
            f"({t['count']} spans, mean {t['mean_s'] * 1e3:.3f} ms)"
        )
    if bn["ranks"]:
        busiest = bn["ranks"][0]
        lines.append(
            f"  busiest rank: {busiest['rank']} "
            f"({busiest['busy_s'] * 1e3:.3f} ms busy)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the CLI: python -m repro analyze
# ----------------------------------------------------------------------
def _tracesim_events(ranks: int, resolution: int, rays_per_cell: int):
    """Run the real compiled RMCRT graph through the trace simulator
    (the E11 pipeline) and return its exported events + the report."""
    from repro.core import DistributedRMCRT, benchmark_property_init
    from repro.dessim import RMCRTProblem, TaskGraphTraceSimulator, rmcrt_task_cost
    from repro.grid import LoadBalancer
    from repro.radiation import BurnsChristonBenchmark

    bench = BurnsChristonBenchmark(resolution=resolution)
    patch = max(2, resolution // 4)
    grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=patch)
    drm = DistributedRMCRT(
        grid, benchmark_property_init(bench), rays_per_cell=rays_per_cell, halo=2
    )
    assignment = LoadBalancer(ranks).assign(grid.finest_level.patches)
    graph = drm.build_graph(assignment=assignment, num_ranks=ranks)
    problem = RMCRTProblem(fine_cells=resolution, refinement_ratio=2, halo=2)
    cost = rmcrt_task_cost(problem, patch_size=patch)
    report = TaskGraphTraceSimulator().simulate(graph, cost)
    return report.to_chrome_trace_events(), report


def cmd_analyze(argv) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Critical-path and wait-time analysis of a trace: an "
        "existing merged trace file, a fresh profile->merge run, or a "
        "tracesim simulation.",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="trace-event JSON to analyze (a merged profile trace or a "
        "tracesim export); omit with --profile/--tracesim",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run an instrumented profile (profile -> merge -> analyze)",
    )
    parser.add_argument(
        "--tracesim", action="store_true",
        help="event-simulate the compiled RMCRT graph and analyze that "
        "timeline (cross-checks the E11 scaling curve)",
    )
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--steps", type=int, default=2, help="profile timesteps")
    parser.add_argument("--resolution", type=int, default=12)
    parser.add_argument("--rays-per-cell", type=int, default=4)
    parser.add_argument(
        "--workdir", default=".",
        help="where --profile writes its trace artifacts",
    )
    parser.add_argument("--top", type=int, default=5, help="top-K bottlenecks")
    parser.add_argument(
        "--tolerance", type=float, default=ATTRIBUTION_TOLERANCE,
        help="attribution residual tolerance (fraction of wall-clock)",
    )
    parser.add_argument("--out", default="analysis_report.json")
    args = parser.parse_args(argv)

    modes = sum((args.trace is not None, args.profile, args.tracesim))
    if modes != 1:
        print(
            "error: give exactly one of TRACE, --profile, or --tracesim",
            file=sys.stderr,
        )
        return 2

    try:
        sim_makespan = None
        if args.trace is not None:
            report = analyze_trace(
                args.trace, top_k=args.top, tolerance=args.tolerance
            )
        elif args.tracesim:
            events, sim_report = _tracesim_events(
                args.ranks, args.resolution, args.rays_per_cell
            )
            sim_makespan = sim_report.makespan
            report = analyze_events(
                events,
                top_k=args.top,
                source=f"tracesim({args.ranks} ranks)",
                tolerance=args.tolerance,
            )
        else:
            from repro.perf.profile import run_profile

            workdir = Path(args.workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            trace_path = workdir / "merged_trace.json"
            run_profile(
                steps=args.steps,
                resolution=args.resolution,
                rays_per_cell=args.rays_per_cell,
                num_ranks=args.ranks,
                trace_path=str(trace_path),
                metrics_path=str(workdir / "metrics.json"),
                merge=True,
                rank_trace_dir=str(workdir),
            )
            report = analyze_trace(
                trace_path, top_k=args.top, tolerance=args.tolerance
            )
    except PerfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if sim_makespan is not None:
        # the simulator's own makespan is the independent ground truth
        report["simulated_makespan_s"] = sim_makespan
        report["speedup_bound"]["bound_holds"] = bool(
            report["speedup_bound"]["bound_holds"]
            and report["speedup_bound"]["critical_path_s"]
            <= sim_makespan * (1.0 + 1e-6)
        )
    out = write_report(report, args.out)
    print(format_analysis(report))
    print(f"  report -> {out}")
    ok = report["attribution"]["buckets_sum_ok"] and report["speedup_bound"]["bound_holds"]
    if not ok:
        print(
            "error: analysis failed validation (attribution residual or "
            "critical-path bound)",
            file=sys.stderr,
        )
    return 0 if ok else 1
