"""Tests for the observability layer: metrics registry semantics, span
tracer nesting + Chrome trace-event schema, rank-stats reduction,
tracesim export round-trip, the benchmark artifact harness, and the
profile runner."""

import json
import threading

import pytest

from repro.grid import Box, Grid, decompose_level
from repro.dw import cc
from repro.dessim import TaskGraphTraceSimulator
from repro.machine import NetworkModel
from repro.perf import (
    MetricsRegistry,
    SpanTracer,
    format_rank_stats,
    publish_rank_stats,
    reduce_rank_stats,
    write_bench_artifact,
)
from repro.runtime import Computes, Requires, Task, TaskGraph
from repro.util.errors import PerfError


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("rays").inc()
        reg.counter("rays").inc(4)
        assert reg.value("rays") == 5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(PerfError):
            reg.counter("rays").inc(-1)

    def test_labels_partition_a_name(self):
        reg = MetricsRegistry()
        reg.counter("retired", pool="waitfree").inc(10)
        reg.counter("retired", pool="locked").inc(3)
        assert reg.value("retired", pool="waitfree") == 10
        assert reg.value("retired", pool="locked") == 3
        assert reg.total("retired") == 13
        assert len(reg.series("retired")) == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", rank=1, pool="wf")
        b = reg.counter("x", pool="wf", rank=1)
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("footprint")
        with pytest.raises(PerfError):
            reg.gauge("footprint")
        with pytest.raises(PerfError):
            reg.gauge("footprint", allocator="arena")  # any label set

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("outstanding")
        g.set(10)
        g.dec(4)
        g.inc(1)
        assert reg.value("outstanding") == 7

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("task_time", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(55.55 / 4)
        assert h.bucket_counts == [1, 1, 1, 1]  # one in overflow
        d = h.as_dict()
        assert d["buckets"][-1] == {"le": None, "count": 1}

    def test_as_dict_structure(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1)
        snap = reg.as_dict()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"][0] == {
            "name": "c", "labels": {"k": "v"}, "value": 1.0,
        }
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_write_and_reset(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "metrics.json"
        reg.write(path)
        assert json.loads(path.read_text())["counters"]
        reg.reset()
        assert len(reg) == 0
        reg.gauge("c")  # kind map cleared too: no conflict after reset

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("n") == 4000


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_close_inner_first(self):
        tr = SpanTracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        events = [e for e in tr.events() if e["ph"] == "X"]
        # events() sorts by start time: outer opened first
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_mismatched_end_raises(self):
        tr = SpanTracer()
        tr.begin("a")
        with pytest.raises(PerfError):
            tr.end("b")

    def test_end_without_begin_raises(self):
        tr = SpanTracer()
        with pytest.raises(PerfError):
            tr.end()

    def test_disabled_tracer_is_a_noop(self):
        tr = SpanTracer(enabled=False)
        tr.begin("a")
        tr.end("whatever")  # no mismatch check when disabled
        tr.end()  # no underflow either
        with tr.span("s"):
            pass
        assert tr.events() == []

    def test_disabled_span_is_one_shared_context_that_yields_the_tracer(self):
        tr = SpanTracer(enabled=False)
        first, second = tr.span("a", cat="task", patch=1), tr.span("b")
        assert first is second
        with first as got:
            with second as inner:
                assert got is inner is tr
        assert tr.events() == [] and tr.open_spans() == 0

    @pytest.mark.parametrize("enabled", [False, True])
    def test_a_span_lets_exceptions_through(self, enabled):
        tr = SpanTracer(enabled=enabled)
        with pytest.raises(KeyError, match="boom"):
            with tr.span("s"):
                raise KeyError("boom")
        assert tr.open_spans() == 0
        assert [e["name"] for e in tr.events() if e["ph"] == "X"] == (["s"] if enabled else [])

    def test_chrome_trace_schema(self, tmp_path):
        tr = SpanTracer()
        tr.register_thread(tid=3, name="rank 3")
        with tr.span("task", cat="task", patch=7):
            pass
        tr.instant("marker")
        path = tmp_path / "trace.json"
        tr.write(path)
        events = json.loads(path.read_text())
        assert isinstance(events, list) and events
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            assert e["ph"] in ("X", "M", "i")
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "rank 3"
        x = [e for e in events if e["ph"] == "X"][0]
        assert x["tid"] == 3 and x["cat"] == "task" and x["args"]["patch"] == 7

    def test_per_thread_stacks(self):
        tr = SpanTracer()
        errors = []

        def worker(rank):
            tr.register_thread(tid=rank)
            try:
                with tr.span(f"work{rank}"):
                    pass
            except PerfError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(r,)) for r in (5, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        tids = {e["tid"] for e in tr.events() if e["ph"] == "X"}
        assert tids == {5, 6}

    def test_open_spans_counts_balance(self):
        tr = SpanTracer()
        tr.begin("a")
        assert tr.open_spans() == 1
        tr.end("a")
        assert tr.open_spans() == 0

    def test_complete_injection(self):
        tr = SpanTracer()
        tr.complete("sim", ts_us=100.0, dur_us=50.0, tid=2, cat="sim.task")
        (e,) = tr.events()
        assert e == {
            "name": "sim", "ph": "X", "ts": 100.0, "dur": 50.0,
            "pid": 0, "tid": 2, "cat": "sim.task",
        }


# ----------------------------------------------------------------------
# rank stats
# ----------------------------------------------------------------------
class TestRankStats:
    def test_reduction(self):
        per_rank = {
            0: {"task_time": 1.0, "msgs": 10},
            1: {"task_time": 3.0, "msgs": 20},
            2: {"task_time": 2.0},  # ragged: msgs missing -> 0
        }
        out = reduce_rank_stats(per_rank)
        tt = out["task_time"]
        assert (tt.min, tt.max, tt.total) == (1.0, 3.0, 6.0)
        assert tt.mean == pytest.approx(2.0)
        assert (tt.min_rank, tt.max_rank) == (0, 1)
        assert tt.imbalance == pytest.approx(1.5)
        assert out["msgs"].min == 0.0 and out["msgs"].min_rank == 2

    def test_format_table(self):
        out = reduce_rank_stats({0: {"t": 1.0}, 1: {"t": 2.0}})
        text = format_rank_stats(out, title="Stats")
        assert "Stats (2 ranks)" in text
        assert "(r0)" in text and "(r1)" in text

    def test_publish(self):
        reg = MetricsRegistry()
        publish_rank_stats(reg, {0: {"t": 1.0}, 1: {"t": 3.0}}, prefix="sched")
        assert reg.value("sched.t", rank=0) == 1.0
        assert reg.value("sched.t.max") == 3.0
        assert reg.value("sched.t.mean") == 2.0

    # imbalance guard regressions: zero mean, negative mean, one rank
    def test_imbalance_all_zero_is_balanced(self):
        out = reduce_rank_stats({0: {"idle": 0.0}, 1: {"idle": 0.0}})
        assert out["idle"].imbalance == 1.0

    def test_imbalance_zero_mean_positive_max_reports_worst_case(self):
        # one rank did +2, the other -2: mean 0, the old code divided
        out = reduce_rank_stats({0: {"drift": 2.0}, 1: {"drift": -2.0}})
        assert out["drift"].imbalance == 2.0  # == ranks, the worst case

    def test_imbalance_negative_mean_never_negative(self):
        out = reduce_rank_stats({0: {"drift": -1.0}, 1: {"drift": -3.0}})
        assert out["drift"].imbalance >= 1.0

    def test_imbalance_single_rank_is_balanced(self):
        out = reduce_rank_stats({0: {"t": 5.0}})
        assert out["t"].imbalance == 1.0
        assert out["t"].as_dict()["imbalance"] == 1.0


# ----------------------------------------------------------------------
# tracesim -> Chrome trace round trip
# ----------------------------------------------------------------------
class TestTracesimExport:
    def simulate(self):
        grid = Grid()
        level = grid.add_level(Box.cube(16), (1.0,) * 3)
        decompose_level(level, (4, 16, 16))
        phi, psi = cc("phi"), cc("psi")

        def noop(ctx):
            pass

        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(phi)]), 0)
        tg.add_task(
            Task("copy", noop, requires=[Requires(phi)], computes=[Computes(psi)]),
            0,
        )
        assignment = {p.patch_id: p.patch_id % 2 for p in level.patches}
        graph = tg.compile(assignment=assignment, num_ranks=2)
        sim = TaskGraphTraceSimulator(NetworkModel(latency_s=0.0))
        return sim.simulate(graph, lambda dt: 1.0)

    def test_round_trip_preserves_per_rank_busy(self):
        report = self.simulate()
        events = report.to_chrome_trace_events()
        busy = {}
        for e in events:
            if e["ph"] == "X":
                busy[e["tid"]] = busy.get(e["tid"], 0.0) + e["dur"] / 1e6
        for rank, tl in report.ranks.items():
            assert busy[rank] == pytest.approx(tl.busy)

    def test_event_schema_and_rank_rows(self, tmp_path):
        report = self.simulate()
        path = tmp_path / "sim_trace.json"
        report.write_chrome_trace(path)
        events = json.loads(path.read_text())
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["tid"] for e in meta} == set(report.ranks)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(report.traces)
        for e in xs:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "cat", "args"} <= set(e)
            assert e["cat"] == "sim.task"
            assert e["args"]["wait_us"] >= 0
        # simulated seconds scaled to microseconds
        assert max(e["ts"] + e["dur"] for e in xs) == pytest.approx(
            report.makespan * 1e6
        )


# ----------------------------------------------------------------------
# benchmark artifact harness
# ----------------------------------------------------------------------
class TestHarness:
    def test_write_artifact(self, tmp_path):
        path = write_bench_artifact(
            "demo",
            params={"ranks": 4},
            rows=[{"n": 1, "time": 0.5}],
            metrics={"makespan": 0.5},
            directory=tmp_path,
        )
        assert path.name == "BENCH_demo.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1 and doc["name"] == "demo"
        assert doc["params"] == {"ranks": 4}
        assert doc["rows"] == [{"n": 1, "time": 0.5}]
        assert doc["metrics"] == {"makespan": 0.5}

    def test_bench_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "artifacts"))
        path = write_bench_artifact("env", params={}, rows=[])
        assert path.parent == tmp_path / "artifacts"
        assert path.exists()

    def test_numpy_values_serialized(self, tmp_path):
        import numpy as np

        path = write_bench_artifact(
            "np",
            params={"x": np.float64(1.5)},
            rows=[{"a": np.arange(3)}],
            directory=tmp_path,
        )
        doc = json.loads(path.read_text())
        assert doc["params"]["x"] == 1.5
        assert doc["rows"][0]["a"] == [0, 1, 2]


# ----------------------------------------------------------------------
# the profile runner (the `python -m repro profile` entry)
# ----------------------------------------------------------------------
class TestProfileRunner:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro.perf.profile import run_profile

        d = tmp_path_factory.mktemp("profile")
        summary = run_profile(
            steps=2,
            resolution=8,
            rays_per_cell=2,
            num_ranks=2,
            trace_path=str(d / "trace.json"),
            metrics_path=str(d / "metrics.json"),
        )
        return d, summary

    def test_trace_is_valid_chrome_json(self, artifacts):
        d, summary = artifacts
        events = json.loads((d / "trace.json").read_text())
        assert isinstance(events, list)
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= set(e)
        # at least one task-exec span per timestep
        steps = [e for e in events if e.get("cat") == "driver"
                 and e["name"].startswith("timestep")]
        tasks = [e for e in events if e.get("cat") == "task"]
        assert len(steps) == 2
        for s in steps:
            inside = [
                t for t in tasks
                if s["ts"] <= t["ts"] and t["ts"] + t["dur"] <= s["ts"] + s["dur"]
            ]
            assert inside, f"no task span inside {s['name']}"

    def test_metrics_cover_required_subsystems(self, artifacts):
        d, _ = artifacts
        doc = json.loads((d / "metrics.json").read_text())
        names = {m["name"] for group in doc.values() for m in group}
        assert any(n.startswith("scheduler.") for n in names)
        assert any(n.startswith("comm.pool.") for n in names)
        assert any(n.startswith("alloc.") for n in names)
        assert any(n.startswith("dw.") for n in names)

    def test_summary_and_runtime_stats(self, artifacts):
        from repro.perf.profile import format_summary

        _, summary = artifacts
        assert summary["task_spans"] > 0
        stats = {s["name"]: s for s in summary["runtime_stats"]}
        assert stats["tasks_executed"]["total"] > 0
        text = format_summary(summary)
        assert "Runtime stats" in text

    def test_cli_profile_subcommand(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--steps", "1", "--resolution", "8",
                     "--rays-per-cell", "2"]) == 0
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()


# ----------------------------------------------------------------------
# histogram quantiles
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def make(self, values, buckets=(1.0, 5.0, 10.0)):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=buckets)
        for v in values:
            hist.observe(v)
        return hist

    def test_empty_histogram_has_no_quantile(self):
        assert self.make([]).quantile(0.5) is None

    def test_q_out_of_range_raises(self):
        hist = self.make([1.0])
        for q in (-0.1, 1.1):
            with pytest.raises(PerfError):
                hist.quantile(q)

    def test_interpolates_within_a_bucket(self):
        # 100 uniform values in [0, 1): the median sits mid-bucket
        hist = self.make([i / 100 for i in range(100)])
        assert 0.3 <= hist.quantile(0.5) <= 0.7

    def test_clamped_to_observed_range(self):
        hist = self.make([2.0, 3.0], buckets=(1.0, 5.0, 10.0))
        assert hist.quantile(0.0) >= 2.0
        assert hist.quantile(1.0) <= 3.0

    def test_overflow_bucket_reports_max(self):
        hist = self.make([100.0, 200.0], buckets=(1.0, 5.0))
        assert hist.quantile(0.99) == 200.0

    def test_as_dict_carries_p50_p95_p99(self):
        d = self.make([0.5] * 10).as_dict()
        assert {"p50", "p95", "p99"} <= set(d)
        assert d["p50"] == d["p95"] == d["p99"] == 0.5

    def test_quantiles_are_monotone(self):
        import random

        rnd = random.Random(3)
        hist = self.make([rnd.uniform(0, 20) for _ in range(500)])
        q = [hist.quantile(x) for x in (0.1, 0.5, 0.9, 0.99)]
        assert q == sorted(q)


# ----------------------------------------------------------------------
# tracer thread safety
# ----------------------------------------------------------------------
class TestTracerConcurrency:
    def test_concurrent_spans_round_trip_to_chrome_trace(self):
        tracer = SpanTracer(enabled=True)
        n_threads, n_spans = 8, 50
        start = threading.Barrier(n_threads)

        def worker(k):
            start.wait()
            for i in range(n_spans):
                with tracer.span(f"w{k}.s{i}", cat="task", k=k, i=i):
                    pass

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        events = tracer.to_chrome_trace()
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == n_threads * n_spans  # no lost emits
        names = {e["name"] for e in spans}
        assert len(names) == n_threads * n_spans  # no duplicates
        for e in spans:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
        # per-thread tids partition the spans evenly
        by_tid = {}
        for e in spans:
            by_tid.setdefault(e["tid"], []).append(e)
        assert all(len(v) == n_spans for v in by_tid.values())

    def test_sinks_see_every_event_once(self):
        tracer = SpanTracer(enabled=True)
        seen = []
        tracer.add_sink(seen.append)

        def worker():
            for i in range(100):
                tracer.instant(f"i{i}")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 400
