"""The four workloads: seeded input generators and the ops they drive.

Input generation is pure Python over ``random.Random(seed)`` and imports
nothing from ``repro``: the program only ever sees the generated inputs
(solver seeds, request order, think times), and every seed does the same
amount of work. The workload classes import ``repro`` lazily, inside
``setup``, so that import cost lands in ``setup_s``.

Why these four (the ``why`` lines of BENCHMARK.json, at length):

``longmarch_reflect``
    One 16^3 launch of 12k rays with gray (emissivity 0.5) walls.
    ``core.dda.march`` does ~all the work with a long thin tail, because
    reflecting rays live for hundreds of steps while the active set is
    rebuilt over the full launch each step. The workload for compaction
    and active-set work.
``onion_fat``
    The same kernel used the other way: 32^3 fine level in eight 16^3
    patches, ~16k-ray launches that march a few cells, test the ROI each
    step, park, and re-launch on the coarse level. A compaction that wins
    on ``longmarch_reflect`` but taxes dense launches shows here.
``pipeline_thin``
    27 patches of 8^3 with one ray per cell through the 2-rank
    distributed scheduler: most of the op is task-graph compile,
    scheduler loop, DataWarehouse, comm and per-task field assembly.
    Kernel changes should barely move it; runtime changes should.
``spool_mix``
    The serving path: ``cmd_submit`` against a ``repro serve`` process,
    70 % cache hits on four hot specs and 30 % never-seen seeds. Solve
    cost is a minority; the fixed polls and the spool protocol dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import spans

#: inputs generated per run; the timed loop is bounded by --seconds and
#: never gets near this
MAX_OPS = 600
BLOCK = 10                      #: spool_mix: ops per shuffled block
HITS_PER_BLOCK = 7              #: 70 % hits, fixed by count
HOT_SPECS = 4
THINK_DECADES_MS = tuple(range(0, 100, 10))
SPOOL_CHECK_SAMPLES = 5
LADDER_HITS = 14                #: with the six misses of two blocks, the same 70/30 mix


# ----------------------------------------------------------------------
# input generation (seed -> inputs; no repro imports)
# ----------------------------------------------------------------------
def solver_inputs(seed: int, n: int = MAX_OPS) -> List[int]:
    """Distinct per-op solver seeds."""
    return random.Random(seed).sample(range(1, 1 << 30), n)


@dataclass(frozen=True)
class SpoolOp:
    hit: bool          #: served from the hot set (cache) or a fresh solve
    rmcrt_seed: int    #: the spec's <randomSeed>
    think_ms: int      #: client pause before the request


def spool_inputs(seed: int, n: int = MAX_OPS):
    """(hot seeds, ops). Every block of ten ops holds seven hits and
    three never-seen seeds in shuffled order, so any prefix keeps the
    mix, and one think time from each decade of [0, 100 ms) at a random
    millisecond within it, so arrivals cover every phase of the server's
    and the client's 50 ms polls evenly instead of beating against them."""
    rng = random.Random(seed)
    pool = rng.sample(range(1, 1 << 30), HOT_SPECS + n)
    hot, fresh = pool[:HOT_SPECS], iter(pool[HOT_SPECS:])
    ops: List[SpoolOp] = []
    while len(ops) < n:
        kinds = [True] * HITS_PER_BLOCK + [False] * (BLOCK - HITS_PER_BLOCK)
        rng.shuffle(kinds)
        decades = list(THINK_DECADES_MS)
        rng.shuffle(decades)
        for hit, decade in zip(kinds, decades):
            ops.append(SpoolOp(hit, rng.choice(hot) if hit else next(fresh),
                               decade + rng.randrange(10)))
    return hot, ops[:n]


# ----------------------------------------------------------------------
# op results and checks
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """An op's output failed a correctness check."""


@dataclass
class OpResult:
    rays: int          #: rays traced by a solve this op ran (0 on a hit)
    solved: bool       #: the op ran a solve (counts towards miss_ms_mid)


def check_divq(divq, shape, bounds) -> None:
    import numpy as np

    if tuple(divq.shape) != tuple(shape):
        raise CheckFailed(f"divq shape {divq.shape} != {shape}")
    if not np.isfinite(divq).all():
        raise CheckFailed("divq has non-finite values")
    lo, hi = bounds
    if divq.min() < lo or divq.max() > hi:
        raise CheckFailed(
            f"divq range [{divq.min():.4g}, {divq.max():.4g}] outside [{lo}, {hi}]"
        )


class Workload:
    """Base: a closed loop of one client. ``run_op`` is the timed part;
    ``verify`` runs untimed right after it and raises on a bad output."""

    name = ""
    clock = "calibrated"
    reference = "tail"          #: the reference kernel shape that resembles the op
    targets: Sequence[spans.Target] = ()
    root_layer = "solver"       #: layer of the op's own span (the entry point)
    repeatable = True           #: the same input twice does the same work
    single_threaded = True
    op_timeout_s = 30.0
    traced_reserve_s = 0.0      #: part of a traced run kept for traced_extras
    scene: Dict[str, object] = {}

    def inputs(self, seed: int) -> list:
        return solver_inputs(seed)

    def setup(self, scratch: Path, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, inp):
        """Untimed client work before the op (request file, think time);
        returns what ``run_op`` and ``verify`` are given."""
        return inp

    def run_op(self, prepared, traced=False):
        raise NotImplementedError

    def verify(self, inp, out) -> OpResult:
        check_divq(out.divq, self.shape, self.bounds)
        return OpResult(rays=out.rays_traced, solved=True)

    def equivalence(self) -> str:
        """One check against an independent path; returns a one-line
        description, raises CheckFailed on disagreement."""
        raise NotImplementedError

    def op_stats(self) -> Dict[str, float]:
        """Counts the program published for the last op (traced runs)."""
        return {}

    def traced_extras(self, harness, records) -> Dict[str, float]:
        """Per-layer metrics that need runs of their own (traced runs)."""
        return {}

    def teardown(self) -> Dict[str, float]:
        """Stop what ``setup`` started; safe to call twice."""
        return {}


def _gray_wall_props(bench, level):
    import numpy as np
    from repro.radiation.properties import RadiativeProperties

    return RadiativeProperties.from_fields(
        level.domain_box,
        abskg=bench.abskg_field(level),
        sigma_t4=np.ones(level.domain_box.extent),
        wall_temperature=0.0,
        wall_emissivity=0.5,
    )


class LongmarchReflect(Workload):
    name = "longmarch_reflect"
    targets = spans.SINGLE_LEVEL_TARGETS
    scene = {"resolution": 16, "levels": 1, "rays_per_cell": 3,
             "reflections": True, "wall_emissivity": 0.5}

    def setup(self, scratch, seed):
        from repro.core.single_level import SingleLevelRMCRT
        from repro.radiation.benchmark import BurnsChristonBenchmark

        self.solver_cls = SingleLevelRMCRT
        self.bench_cls = BurnsChristonBenchmark
        bench = BurnsChristonBenchmark(resolution=16)
        self.grid = bench.single_level_grid()
        self.props = _gray_wall_props(bench, self.grid.finest_level)
        self.shape = (16, 16, 16)
        self.bounds = bench.expected_divq_bounds()

    def run_op(self, inp, traced=False):
        solver = self.solver_cls(rays_per_cell=3, reflections=True, seed=inp)
        return solver.solve(self.grid, self.props)

    def equivalence(self):
        import numpy as np

        bench = self.bench_cls(resolution=8)
        grid = bench.single_level_grid()
        props = _gray_wall_props(bench, grid.finest_level)
        got = {
            backend: self.solver_cls(
                rays_per_cell=3, reflections=True, seed=7, backend=backend
            ).solve(grid, props).divq
            for backend in ("vectorized", "scalar")
        }
        diff = float(np.abs(got["vectorized"] - got["scalar"]).max())
        if diff > 1e-12:
            raise CheckFailed(f"vectorized vs scalar on 8^3: max |diff| {diff:.3g}")
        return f"vectorized == scalar oracle on 8^3 (max |diff| {diff:.2g})"


class OnionFat(Workload):
    name = "onion_fat"
    targets = spans.MULTI_LEVEL_TARGETS
    scene = {"resolution": 32, "levels": 2, "refinement_ratio": 4,
             "fine_patch_size": 16, "patches": 8, "rays_per_cell": 4, "halo": 4}

    def setup(self, scratch, seed):
        from repro.core.multi_level import MultiLevelRMCRT
        from repro.radiation.benchmark import BurnsChristonBenchmark

        self.solver_cls = MultiLevelRMCRT
        self.bench = BurnsChristonBenchmark(resolution=32)
        self.grid = self.bench.two_level_grid(refinement_ratio=4, fine_patch_size=16)
        self.props = self.bench.properties_for_level(self.grid.finest_level)
        self.shape = (32, 32, 32)
        self.bounds = self.bench.expected_divq_bounds()
        self.last = None

    def run_op(self, inp, traced=False):
        self.last = self.solver_cls(rays_per_cell=4, halo=4, seed=inp).solve(
            self.grid, self.props
        )
        return self.last

    def equivalence(self):
        """Centreline of the last multi-level solve against a
        single-level solve of the same scene. Per-ray intensity lies in
        [0, 1/pi], so its standard deviation is at most 1/(2 pi) and a
        centreline point (four cells of four rays) has
        sigma <= 2 kappa / sqrt(16); the two solves are independent."""
        import numpy as np
        from repro.core.single_level import SingleLevelRMCRT

        single = SingleLevelRMCRT(rays_per_cell=4, seed=11).solve(
            self.bench.single_level_grid(), self.props
        )
        x, multi_line = self.bench.centerline(self.last.divq)
        _, single_line = self.bench.centerline(single.divq)
        kappa = self.bench.c * (1.0 - 2.0 * np.abs(x - 0.5)) + self.bench.k0
        band = 3.0 * np.sqrt(2.0) * 2.0 * kappa / np.sqrt(16.0)
        excess = float((np.abs(multi_line - single_line) - band).max())
        if excess > 0:
            raise CheckFailed(f"centreline leaves the 3-sigma MC band by {excess:.3g}")
        worst = float((np.abs(multi_line - single_line) / band).max())
        return f"centreline within the 3-sigma MC band of single-level ({worst:.2f} of it)"


class PipelineThin(Workload):
    name = "pipeline_thin"
    reference = "thin"
    targets = spans.DISTRIBUTED_TARGETS
    root_layer = "core.distributed"
    single_threaded = False
    scene = {"resolution": 24, "levels": 2, "refinement_ratio": 4,
             "fine_patch_size": 8, "patches": 27, "rays_per_cell": 1,
             "halo": 2, "num_ranks": 2}

    def setup(self, scratch, seed):
        from repro.core.distributed import DistributedRMCRT, benchmark_property_init
        from repro.perf.metrics import MetricsRegistry
        from repro.radiation.benchmark import BurnsChristonBenchmark

        self.solver_cls = DistributedRMCRT
        self.registry_cls = MetricsRegistry
        self.bench = BurnsChristonBenchmark(resolution=24)
        self.grid = self.bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        self.property_init = benchmark_property_init(self.bench)
        self.shape = (24, 24, 24)
        self.bounds = self.bench.expected_divq_bounds()
        self.last = None
        self.last_seed = None
        self._stats: Dict[str, float] = {}

    def run_op(self, inp, traced=False):
        solver = self.solver_cls(
            self.grid, self.property_init, rays_per_cell=1, halo=2, seed=inp
        )
        registry = self.registry_cls() if traced else None
        self.last = solver.solve("distributed", num_ranks=2, metrics=registry)
        self.last_seed = inp
        if registry is not None:
            stats = solver.last_runtime_stats
            self._stats = {
                "scheduler.task_exec_ms": stats["task_exec_time"].total * 1e3,
                "scheduler.idle_spins": stats["idle_spins"].total,
                "comm.messages_sent": stats["messages_sent"].total,
                "comm.bytes_sent": stats["bytes_sent"].total,
                "comm.local_ms": stats["local_comm_time"].total * 1e3,
                "dw.nbytes_max_rank": max(
                    registry.value("dw.nbytes", rank=r) for r in range(2)
                ),
                "dw.variables": max(
                    registry.value("dw.variables", rank=r) for r in range(2)
                ),
            }
        return self.last

    def op_stats(self):
        return self._stats

    def equivalence(self):
        import numpy as np
        from repro.core.multi_level import MultiLevelRMCRT

        direct = MultiLevelRMCRT(rays_per_cell=1, halo=2, seed=self.last_seed).solve(
            self.grid, self.bench.properties_for_level(self.grid.finest_level)
        )
        if not np.array_equal(direct.divq, self.last.divq):
            raise CheckFailed("2-rank pipeline differs from MultiLevelRMCRT direct")
        return "2-rank pipeline array_equal to MultiLevelRMCRT direct, same seed"


class SpoolMix(Workload):
    name = "spool_mix"
    clock = "wall"
    targets = spans.UPS_TARGETS
    root_layer = "service.cli"
    repeatable = False
    single_threaded = False
    server = None
    traced_reserve_s = 5.0
    scene = {"resolution": 16, "levels": 2, "refinement_ratio": 2,
             "patch_size": 8, "rays_per_cell": 4, "scheduler": "serial",
             "hot_specs": HOT_SPECS, "hit_share": HITS_PER_BLOCK / BLOCK,
             "server_workers": 1, "clients": 1}

    def inputs(self, seed):
        return spool_inputs(seed)[1]

    # -- spec plumbing --------------------------------------------------
    def spec(self, rmcrt_seed: int):
        from repro.ups import GridSpec, ProblemSpec, RMCRTSpec, SchedulerSpec

        return ProblemSpec(
            grid=GridSpec(resolution=16, levels=2, refinement_ratio=2, patch_size=8),
            rmcrt=RMCRTSpec(n_divq_rays=4, random_seed=rmcrt_seed),
            scheduler=SchedulerSpec(type="serial"),
        )

    def ups_text(self, rmcrt_seed: int) -> str:
        from repro.ups import spec_to_ups

        return spec_to_ups(self.spec(rmcrt_seed))

    def prepare(self, inp: SpoolOp):
        """Write the request's UPS file, then think."""
        self._serial += 1
        path = self.ups_dir / f"r{self._serial:05d}.ups"
        path.write_text(self.ups_text(inp.rmcrt_seed))
        time.sleep(inp.think_ms / 1e3)
        return inp, path

    # -- lifecycle ------------------------------------------------------
    def setup(self, scratch, seed):
        from repro.radiation.benchmark import BurnsChristonBenchmark
        from repro.service.cli import cmd_submit

        self.cmd_submit = cmd_submit
        self.shape = (16, 16, 16)
        self.bounds = BurnsChristonBenchmark(resolution=16).expected_divq_bounds()
        self.spool = scratch / "spool"
        self.ups_dir = scratch / "ups"
        self.ups_dir.mkdir(parents=True)
        self.outbox = self.spool / "outbox"
        self.metrics_file = scratch / "server_metrics.json"
        self._serial = 0
        self.samples: List[tuple] = []
        self.hot, ops = spool_inputs(seed)
        # never-seen seeds for the layer ladder, clear of the warm-up ops
        self.ladder_misses = [op.rmcrt_seed for op in ops[-3 * BLOCK:-BLOCK] if not op.hit]
        self._stats: Optional[Dict[str, float]] = None
        self.server_log = open(scratch / "server.log", "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool", str(self.spool),
             "--workers", "1", "--idle-timeout", "600",
             "--metrics", str(self.metrics_file)],
            stdout=self.server_log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while not (self.spool / "status.json").exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.01)
        for hot_seed in self.hot:  # pre-warm the server's cache
            prepared = self.prepare(SpoolOp(False, hot_seed, 0))
            self.verify(prepared, self.run_op(prepared))
        self.samples.clear()

    def run_op(self, prepared, traced=False):
        _, path = prepared
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cmd_submit(["--spool", str(self.spool), "--timeout",
                                    str(self.op_timeout_s), str(path)])
        if code != 0:
            raise CheckFailed(f"cmd_submit exit {code}: {sink.getvalue().strip()}")

    def checked_result(self, ticket_glob: str, expect_hit: bool):
        """(meta, divq) of the one outbox result matching the glob, after
        the per-op checks; the files are removed so the outbox stays small."""
        import numpy as np

        sidecars = list(self.outbox.glob(ticket_glob + ".json"))
        if len(sidecars) != 1:
            raise CheckFailed(f"{len(sidecars)} results for {ticket_glob}")
        meta = json.loads(sidecars[0].read_text())
        sidecars[0].unlink()
        if meta.get("error"):
            raise CheckFailed(f"server error: {meta['error']}")
        npz = sidecars[0].with_suffix(".npz")
        with np.load(npz) as data:
            divq = data["divq"]
        npz.unlink()
        check_divq(divq, self.shape, self.bounds)
        if bool(meta["cache_hit"]) != expect_hit:
            raise CheckFailed(
                f"expected {'hit' if expect_hit else 'miss'}, "
                f"server says cache_hit={meta['cache_hit']}"
            )
        return meta, divq

    def verify(self, prepared, out):
        inp, path = prepared
        meta, divq = self.checked_result(f"000-{path.stem}-*", inp.hit)
        if len(self.samples) < SPOOL_CHECK_SAMPLES:
            self.samples.append((inp.rmcrt_seed, meta["fingerprint"], divq))
        return OpResult(rays=0 if inp.hit else int(meta["rays_traced"]),
                        solved=not inp.hit)

    def equivalence(self):
        import numpy as np
        from repro.ups import run_ups, spec_fingerprint

        if not self.samples:
            raise CheckFailed("no spool results were sampled")
        for rmcrt_seed, fingerprint, divq in self.samples:
            spec = self.spec(rmcrt_seed)
            if fingerprint != spec_fingerprint(spec):
                raise CheckFailed(f"sidecar fingerprint differs for seed {rmcrt_seed}")
            if run_ups(spec).divq.tobytes() != divq.tobytes():
                raise CheckFailed(f"outbox divq differs from run_ups for seed {rmcrt_seed}")
        return (f"{len(self.samples)} sampled tickets byte-equal to run_ups, "
                "fingerprints equal")

    def server_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.server.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def teardown(self):
        """Stop the server (stop file, then wait) and return what it
        published: peak RSS and the counters of its --metrics file."""
        if self.server is None or self._stats is not None:
            return dict(self._stats or {})
        stats: Dict[str, float] = {}
        try:
            if self.server.poll() is None:
                stats["server_rss_mb"] = self.server_rss_mb()
                (self.spool / "serve.stop").write_text("stop\n")
                try:
                    self.server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
        finally:
            self.server_log.close()
            self._stats = stats
        if self.metrics_file.exists():
            stats.update(_server_counters(json.loads(self.metrics_file.read_text())))
        return dict(stats)

    # -- the layer ladder (traced runs) ---------------------------------
    def traced_extras(self, harness, records):
        """The server is another process and cannot be wrapped, so its
        layers come from a ladder on the same specs: direct ``run_ups``
        -> in-process ``ServiceClient`` -> the spool with a 1 ms-poll
        client of the benchmark's own -> the real ``cmd_submit`` (the
        timed loop). Each rung's added time is one layer."""
        from repro.service.service import ServiceClient, ServiceConfig
        from repro.service.spool import read_result_meta, write_request
        from repro.ups import parse_ups, run_ups

        from benchmarks.e2e.stats import percentile

        recorder = harness.recorder
        hot = [self.ups_text(seed) for seed in self.hot]
        hits = [hot[i % len(hot)] for i in range(LADDER_HITS)]
        misses = [self.ups_text(seed) for seed in self.ladder_misses]

        def timed(fn, *args):
            t0 = time.perf_counter()
            fn(*args)
            return (time.perf_counter() - t0) * 1e3

        recorder.op = -2  # ladder spans belong to no timed op
        with harness.tracing.active():
            direct = [timed(lambda text: run_ups(parse_ups(text)), t) for t in misses]
            with ServiceClient(ServiceConfig(workers=1)) as client:
                for text in hot:
                    client.solve(text)
                inproc_miss = [timed(client.solve, t) for t in misses]
                inproc_hit = [timed(client.solve, t) for t in hits]

        inbox = self.spool / "inbox"
        writes: List[float] = []
        reads: List[float] = []

        def fast_poll(text: str, hit: bool) -> float:
            # think times spread over [0, 100 ms) like the timed loop's,
            # so that arrivals are as little phase-locked to the polls
            self._serial += 1
            time.sleep((self._serial * 37 % 100) / 1e3)
            ticket = f"fast-{self._serial:05d}"
            t0 = time.perf_counter()
            write_request(inbox, ticket, text)
            t1 = time.perf_counter()
            while True:
                t2 = time.perf_counter()
                meta = read_result_meta(self.outbox, ticket)
                t3 = time.perf_counter()
                if meta is not None:
                    break
                if t3 - t0 > self.op_timeout_s:
                    raise CheckFailed(f"no result for {ticket}")
                time.sleep(0.001)
            writes.append((t1 - t0) * 1e3)
            reads.append((t3 - t2) * 1e3)
            self.checked_result(ticket, hit)
            return (t3 - t0) * 1e3

        fast_miss = [fast_poll(t, False) for t in misses]
        fast_hit = [fast_poll(t, True) for t in hits]

        def p50(values):
            return percentile(values, 50)

        def span_ms(name):
            return p50([(s.end - s.start) * 1e3 for s in recorder.spans if s.name == name])

        submit_hit = p50([r.ms for r in records if r.ok and not r.solved])
        return {
            "ups.parse_ms": span_ms("ups.parse"),
            "ups.prepare_ms": span_ms("ups.prepare"),
            "ups.fingerprint_ms": span_ms("ups.fingerprint"),
            "service.hit_added_ms": p50(inproc_hit),
            "service.miss_added_ms": p50(inproc_miss) - p50(direct),
            "spool.server_hit_ms": p50(fast_hit) - p50(inproc_hit),
            "spool.server_miss_added_ms": p50(fast_miss) - p50(inproc_miss),
            "spool.write_request_ms": p50(writes),
            "spool.read_result_ms": p50(reads),
            "submit.client_added_ms": submit_hit - p50(fast_hit),
        }


def _server_counters(doc: dict) -> Dict[str, float]:
    """Totals by series name from a MetricsRegistry dump."""
    totals: Dict[str, float] = {}
    for entry in doc.get("counters", []):
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["value"]
    hits = totals.get("service.cache.hits", 0.0)
    solves = totals.get("service.worker.solves", 0.0)
    return {
        "service.cache_hits": hits,
        "service.solves": solves,
        "service.cache_hit_ratio": hits / (hits + solves) if hits + solves else 0.0,
        "spool.claimed": totals.get("service.spool.claimed", 0.0),
    }


WORKLOADS = {cls.name: cls for cls in (LongmarchReflect, OnionFat, PipelineThin, SpoolMix)}
