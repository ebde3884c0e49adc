"""Runtime observability: metrics, span tracing, rank-stats reduction.

The paper's scaling campaign lived and died on instrumentation — Table
1's component timings, Figure 1's communication-time diagnosis, the
fragmentation factors of Section IV.B all come from the runtime
reporting on itself. This package is that reporting surface for the
reproduction:

* :mod:`repro.perf.metrics` — counters / gauges / histograms with
  labels, published into by schedulers, comm pools, allocators, and
  the DataWarehouse;
* :mod:`repro.perf.tracer` — nested spans with thread/rank
  attribution, exported as Chrome trace-event JSON;
* :mod:`repro.perf.rankstats` — Uintah-style min/mean/max/total
  reduction of per-rank statistics;
* :mod:`repro.perf.harness` — the shared ``BENCH_<name>.json``
  artifact writer for the benchmark scripts;
* :mod:`repro.perf.profile` — the ``python -m repro profile`` runner;
* :mod:`repro.perf.analyze` — critical-path extraction, wall-clock
  attribution, and speedup bounds over merged traces
  (``python -m repro analyze``);
* :mod:`repro.perf.tsdb` — the embedded metrics time-series store and
  snapshot collector behind ``repro status --watch`` history.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analyze": ["analyze_events", "analyze_trace", "build_span_dag", "critical_path",
                 "format_analysis"],
    ".harness": ["BENCH_SCHEMA_VERSION", "bench_artifact_path", "write_bench_artifact"],
    ".metrics": ["Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
                 "MetricsRegistry", "get_metrics", "set_metrics", "timed"],
    ".rankstats": ["StatSummary", "format_rank_stats", "publish_rank_stats",
                   "reduce_rank_stats"],
    ".tracer": ["SpanTracer", "get_tracer", "set_tracer"],
    ".tsdb": ["SnapshotCollector", "TimeSeriesStore", "flatten_registry",
              "get_collector", "set_collector"],
})
