"""Per-layer metrics from the spans and counts of a traced run.

Everything is per op (median over the traced ops) unless the name says
otherwise. Times are scaled by each op's clock factor, so on a
calibrated workload the layers add up to ``op_ms_p50`` rather than to
the raw wall time of a noisy moment. A layer a workload does not touch
reports 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from benchmarks.e2e.spans import Span, self_times
from benchmarks.e2e.stats import percentile

#: every per-layer metric, with its unit — the ``per_layer`` list of
#: BENCHMARK.json is generated from this table
PER_LAYER = {
    "dda.march_calls": "count",
    "dda.handoff_calls": "count",
    "dda.rays_launched": "count",
    "dda.march_ms": "ms",
    "dda.ns_per_ray": "ns",
    "rays.gen_ms": "ms",
    "kernels.trace_calls": "count",
    "kernels.self_ms": "ms",
    "fields.build_ms": "ms",
    "fields.project_ms": "ms",
    "solver.self_ms": "ms",
    "distributed.self_ms": "ms",
    "taskgraph.compile_ms": "ms",
    "taskgraph.tasks": "count",
    "taskgraph.messages": "count",
    "scheduler.execute_ms": "ms",
    "scheduler.kernel_ms_max_rank": "ms",
    "scheduler.overhead_frac": "ratio",
    "scheduler.task_exec_ms": "ms",
    "scheduler.idle_spins": "count",
    "comm.messages_sent": "count",
    "comm.bytes_sent": "bytes",
    "comm.local_ms": "ms",
    "dw.gather_ms": "ms",
    "dw.nbytes_max_rank": "bytes",
    "dw.variables": "count",
    "ups.parse_ms": "ms",
    "ups.prepare_ms": "ms",
    "ups.fingerprint_ms": "ms",
    "service.hit_added_ms": "ms",
    "service.miss_added_ms": "ms",
    "service.cache_hits": "count",
    "service.solves": "count",
    "service.cache_hit_ratio": "ratio",
    "spool.server_hit_ms": "ms",
    "spool.server_miss_added_ms": "ms",
    "spool.write_request_ms": "ms",
    "spool.read_result_ms": "ms",
    "spool.claimed": "count",
    "submit.client_added_ms": "ms",
    "trace_overhead_frac": "ratio",
    "layer_sum_frac": "ratio",
    "op_wall_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ref_ms_p50": "ms",
    "noise_ratio": "ratio",
}

#: stats a workload publishes per op that are times, hence clock-scaled
_TIMED_STATS = ("scheduler.task_exec_ms", "comm.local_ms")


def op_layers(spans: Sequence[Span], root: Span, scale: float) -> Dict[str, float]:
    """One traced op's layer numbers from its span tree."""
    own = self_times(spans)
    ms = 1e3 * scale

    def named(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def dur(name: str) -> float:
        return sum(s.end - s.start for s in named(name)) * ms

    def count(name: str, key: str) -> float:
        return sum((s.counts or {}).get(key, 0) for s in named(name))

    out = {
        "dda.march_calls": count("dda.march", "march_calls"),
        "dda.handoff_calls": count("dda.march", "handoff_calls"),
        "dda.rays_launched": count("dda.march", "rays_launched"),
        "dda.march_ms": dur("dda.march"),
        "rays.gen_ms": dur("rays.generate"),
        "kernels.trace_calls": len(named("kernels.trace")),
        "kernels.self_ms": sum(own[s.id] for s in named("kernels.trace")) * ms,
        "fields.build_ms": dur("fields.build"),
        "fields.project_ms": dur("fields.project"),
        "taskgraph.compile_ms": dur("taskgraph.compile"),
        "taskgraph.tasks": count("taskgraph.compile", "tasks"),
        "taskgraph.messages": count("taskgraph.compile", "messages"),
        "scheduler.execute_ms": dur("scheduler.execute"),
        "dw.gather_ms": dur("dw.gather"),
    }
    fresh = count("dda.march", "rays_fresh")
    if fresh:
        out["dda.ns_per_ray"] = out["dda.march_ms"] * 1e6 / fresh
    # the op's own span is the solver entry point: what is left of it
    # after its children is the solver's (or the pipeline's) own code;
    # on the pipeline the task callbacks' own code (field assembly, NaN
    # poisoning) belongs to the same layer, summed over the rank threads
    if root.layer == "solver":
        out["solver.self_ms"] = own[root.id] * ms
    elif root.layer == "core.distributed":
        tasks = [s for s in spans if s.layer == root.layer and s is not root]
        out["distributed.self_ms"] = (own[root.id] + sum(own[s.id] for s in tasks)) * ms
    if out["scheduler.execute_ms"]:
        per_thread: Dict[int, float] = {}
        for s in named("kernels.trace"):
            per_thread[s.thread] = per_thread.get(s.thread, 0.0) + (s.end - s.start) * ms
        out["scheduler.kernel_ms_max_rank"] = max(per_thread.values(), default=0.0)
        out["scheduler.overhead_frac"] = (
            1.0 - out["scheduler.kernel_ms_max_rank"] / out["scheduler.execute_ms"]
        )
    out["layer_sum_frac"] = sum(own[s.id] for s in spans) / (root.end - root.start)
    return out


def median_layers(per_op: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Median of every key over the ops that reported it."""
    columns: Dict[str, List[float]] = {}
    for row in per_op:
        for key, value in row.items():
            columns.setdefault(key, []).append(value)
    return {key: percentile(values, 50) for key, values in columns.items()}


def scaled_stats(stats: Mapping[str, float], scale: float) -> Dict[str, float]:
    """A workload's published per-op stats with the time-valued ones put
    on the op's clock."""
    return {
        key: value * scale if key in _TIMED_STATS else value
        for key, value in stats.items()
    }


def complete(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """The full per-layer metric set in output form, zeros filled in."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
