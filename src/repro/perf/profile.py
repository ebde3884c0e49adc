"""The profile run: a small instrumented RMCRT simulation.

``python -m repro profile`` drives the distributed 3-task RMCRT
pipeline for a few timesteps with an *enabled* tracer and a fresh
metrics registry, exercises the paper's allocator stack on the
Section IV.B workload so allocator accounting shows up too, and writes

* ``trace.json``   — Chrome trace-event JSON (chrome://tracing,
  Perfetto): one swim-lane per simulated rank plus the driver lane,
  task boxes per timestep;
* ``metrics.json`` — every counter/gauge/histogram the runtime
  published: scheduler per-rank stats, comm-pool internals, MPI fabric
  volume, DataWarehouse traffic, allocator footprints.

The same runner is importable (:func:`run_profile`) so tests can smoke
the artifacts without a subprocess.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.perf.tracer import SpanTracer, set_tracer
from repro.util.errors import ReproError

#: the driver thread's timeline row — far above any rank tid
DRIVER_TID = 1000


def run_profile(
    steps: int = 2,
    resolution: int = 12,
    rays_per_cell: int = 4,
    num_ranks: int = 2,
    pool_kind: str = "waitfree",
    seed: int = 0,
    trace_path: Optional[str] = "trace.json",
    metrics_path: Optional[str] = "metrics.json",
    merge: bool = False,
    rank_trace_dir: Optional[str] = None,
) -> dict:
    """Run ``steps`` instrumented timesteps; write the two artifacts.

    With ``merge=True`` the recording is additionally split into
    per-rank trace files (``trace_rank<k>.json`` under
    ``rank_trace_dir``, default: alongside ``trace_path``) — what a
    real one-file-per-MPI-rank run would have produced — and then
    stitched back through :func:`repro.perf.merge.merge_traces`, so
    ``trace_path`` holds the *merged* trace with cross-rank flow
    arrows, and the summary carries the merge/connectivity stats.

    Returns a summary dict: the artifact paths, event/metric counts,
    and the across-rank runtime-stats reduction of the last step.
    """
    from repro.core import DistributedRMCRT, benchmark_property_init
    from repro.memory.workload import AllocatorStack, generate_trace
    from repro.radiation import BurnsChristonBenchmark

    tracer = SpanTracer(enabled=True)
    metrics = MetricsRegistry()
    # install as process defaults so components resolving get_tracer()/
    # get_metrics() (e.g. the controller) record into the same sinks
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(metrics)
    tracer.register_thread(tid=DRIVER_TID, name="driver")

    try:
        bench = BurnsChristonBenchmark(resolution=resolution)
        grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=resolution // 2)
        drm = DistributedRMCRT(
            grid,
            benchmark_property_init(bench),
            rays_per_cell=rays_per_cell,
            halo=2,
            seed=seed,
        )

        last_stats = None
        with tracer.span("profile", cat="driver"):
            for step in range(1, steps + 1):
                with tracer.span(
                    f"timestep {step}", cat="driver", step=step
                ):
                    drm.solve(
                        "distributed",
                        num_ranks=num_ranks,
                        pool_kind=pool_kind,
                        tracer=tracer,
                        metrics=metrics,
                    )
                last_stats = drm.last_runtime_stats
                metrics.counter("driver.timesteps").inc()

            # allocator exercise: the Section IV.B workload through the
            # paper's custom stack, so alloc.* metrics have real values
            with tracer.span("allocator_replay", cat="driver"):
                events = generate_trace(timesteps=max(2, steps), seed=seed)
                stack = AllocatorStack("custom")
                for ev in events:
                    if ev.op == "alloc":
                        stack.malloc(ev.tag, ev.size, ev.obj_id)
                    else:
                        stack.free(ev.obj_id)
                stack.arena.publish_metrics(metrics)
                stack.pool.publish_metrics(metrics)
                stack.heap.publish_metrics(metrics)
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)

    merge_stats = None
    rank_trace_paths: list = []
    if merge and trace_path is not None:
        from pathlib import Path

        from repro.perf.merge import merge_traces, write_rank_traces

        directory = (
            Path(rank_trace_dir)
            if rank_trace_dir is not None
            else (Path(trace_path).parent or Path("."))
        )
        rank_trace_paths = write_rank_traces(
            tracer.events(), num_ranks, directory=directory
        )
        _, merge_stats = merge_traces(rank_trace_paths, out_path=trace_path)
    elif trace_path is not None:
        tracer.write(trace_path)
    if metrics_path is not None:
        metrics.write(metrics_path)

    events = tracer.events()
    snapshot = metrics.as_dict()
    return {
        "trace_path": trace_path,
        "metrics_path": metrics_path,
        "merge_stats": merge_stats,
        "rank_trace_paths": [str(p) for p in rank_trace_paths],
        "steps": steps,
        "num_ranks": num_ranks,
        "events": len(events),
        "task_spans": sum(1 for e in events if e.get("cat") == "task"),
        "metrics": sum(len(v) for v in snapshot.values()),
        "runtime_stats": (
            [s.as_dict() for s in last_stats.values()] if last_stats else []
        ),
        "tracer": tracer,
        "registry": metrics,
    }


def format_summary(summary: dict) -> str:
    """Human-readable closing report for the CLI."""
    from repro.perf.rankstats import StatSummary, format_rank_stats

    lines = [
        f"profile: {summary['steps']} timesteps on {summary['num_ranks']} "
        f"simulated ranks",
        f"  {summary['events']} trace events "
        f"({summary['task_spans']} task spans) -> {summary['trace_path']}",
        f"  {summary['metrics']} metric series -> {summary['metrics_path']}",
    ]
    ms = summary.get("merge_stats")
    if ms:
        lines.append(
            f"  merged {ms['files']} per-rank traces: {ms['flow_pairs']} "
            f"send/recv flow pairs, {ms['connected_fraction']:.0%} connected"
        )
    stats = {
        d["name"]: StatSummary(**{k: v for k, v in d.items() if k != "imbalance"})
        for d in summary["runtime_stats"]
    }
    if stats:
        lines.append(format_rank_stats(stats, title="Runtime stats (last timestep)"))
    return "\n".join(lines)


def cmd_profile(argv) -> int:
    """``python -m repro profile``: parse the flags, run, print the summary."""
    from repro.comm.driver import POOL_KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run an instrumented RMCRT simulation and write "
        "trace.json + metrics.json.",
    )
    parser.add_argument("--steps", type=int, default=2, help="timesteps to run")
    parser.add_argument(
        "--resolution", type=int, default=12, help="fine-level cells per edge"
    )
    parser.add_argument(
        "--rays-per-cell", type=int, default=4, help="rays per cell"
    )
    parser.add_argument(
        "--ranks", type=int, default=2, help="simulated MPI ranks"
    )
    parser.add_argument(
        "--pool",
        choices=POOL_KINDS,
        default="waitfree",
        help="communication request pool variant",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", default="trace.json", help="Chrome trace output path"
    )
    parser.add_argument(
        "--metrics", default="metrics.json", help="metrics snapshot output path"
    )
    parser.add_argument(
        "--merge",
        action="store_true",
        help="write per-rank trace files and stitch them into one "
        "cross-rank trace with send/recv flow arrows",
    )
    parser.add_argument(
        "--rank-trace-dir",
        default=None,
        help="directory for the per-rank trace files (default: next to "
        "the --trace output)",
    )
    args = parser.parse_args(argv)

    try:
        summary = run_profile(
            steps=args.steps,
            resolution=args.resolution,
            rays_per_cell=args.rays_per_cell,
            num_ranks=args.ranks,
            pool_kind=args.pool,
            seed=args.seed,
            trace_path=args.trace,
            metrics_path=args.metrics,
            merge=args.merge,
            rank_trace_dir=args.rank_trace_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    return 0
