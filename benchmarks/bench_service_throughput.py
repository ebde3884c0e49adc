"""E6 — serving throughput: the content-addressed cache earns its keep.

A duplicate-heavy request stream (many clients asking for the same
handful of scenes — the steady state of a radiation service fronting
an ensemble of near-identical simulations) is driven through the
service twice:

* the full path — content-addressed cache + in-flight coalescing, so
  each distinct spec is ray-traced exactly once, and
* the stripped path — ``cache_capacity=0, coalesce=False``, every
  request pays for a full solve.

The acceptance bar from the service design: the cached path must carry
at least 2x the request throughput of the no-cache path on this
stream. Results (and the cache-hit accounting that explains them) land
in ``BENCH_service_throughput.json``.

A second bench prices the other end of the load curve: what an idle
``repro serve`` costs while it waits for its next request
(``BENCH_serve_idle.json``, gated).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.perf import write_bench_artifact
from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.service import ServiceClient, ServiceConfig
from repro.ups import GridSpec, ProblemSpec, RMCRTSpec

DISTINCT_SPECS = 3
REQUESTS = 24  # 8 requests per distinct spec


def request_stream():
    """24 requests over 3 distinct specs, interleaved — the shape of a
    parameter-study burst, not a sorted batch."""
    specs = [
        ProblemSpec(
            grid=GridSpec(resolution=12, levels=2, refinement_ratio=2,
                          patch_size=6),
            rmcrt=RMCRTSpec(n_divq_rays=3, random_seed=seed),
        )
        for seed in range(DISTINCT_SPECS)
    ]
    return [specs[i % DISTINCT_SPECS] for i in range(REQUESTS)]


def drive(config):
    """Run the stream through a fresh service; returns (elapsed, stats)."""
    import time

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        stream = request_stream()
        with ServiceClient(config) as client:
            t0 = time.perf_counter()
            client.solve_many(stream, timeout=300)
            elapsed = time.perf_counter() - t0
            stats = client.service.stats()
    finally:
        set_metrics(previous)
    return elapsed, stats


def test_duplicate_heavy_stream_throughput(benchmark):
    cached_config = ServiceConfig(workers=2)
    nocache_config = ServiceConfig(workers=2, cache_capacity=0, coalesce=False)

    cached_s, cached_stats = benchmark.pedantic(
        drive, args=(cached_config,), rounds=1, iterations=1
    )
    nocache_s, nocache_stats = drive(nocache_config)

    cached_rps = REQUESTS / cached_s
    nocache_rps = REQUESTS / nocache_s
    speedup = cached_rps / nocache_rps
    print(f"\ncached+coalesced: {cached_rps:,.1f} req/s "
          f"({cached_stats['solves']} solves, "
          f"{cached_stats['cache_hits_memory']} hits, "
          f"{cached_stats['coalesced']} coalesced)")
    print(f"no-cache:         {nocache_rps:,.1f} req/s "
          f"({nocache_stats['solves']} solves)")
    print(f"speedup:          {speedup:.1f}x")

    write_bench_artifact(
        "service_throughput",
        params={
            "requests": REQUESTS,
            "distinct_specs": DISTINCT_SPECS,
            "workers": 2,
            "resolution": 12,
            "rays": 3,
        },
        rows=[
            {
                "path": "cached",
                "seconds": cached_s,
                "requests_per_s": cached_rps,
                "solves": cached_stats["solves"],
                "cache_hits": cached_stats["cache_hits_memory"],
                "coalesced": cached_stats["coalesced"],
            },
            {
                "path": "no_cache",
                "seconds": nocache_s,
                "requests_per_s": nocache_rps,
                "solves": nocache_stats["solves"],
                "cache_hits": nocache_stats["cache_hits_memory"],
                "coalesced": nocache_stats["coalesced"],
            },
        ],
        extra={"speedup": speedup},
    )

    # each distinct spec ray-traced exactly once on the cached path
    assert cached_stats["solves"] == DISTINCT_SPECS
    assert nocache_stats["solves"] == REQUESTS
    # the acceptance bar: >=2x request throughput on duplicate-heavy work
    assert speedup >= 2.0, f"cache path only {speedup:.2f}x the no-cache path"


IDLE_SETTLE_S = 2.0   # past the wait rule's 0.53 s ramp to its 50 ms cap
IDLE_WINDOW_S = 10.0


def idle_server(spool: Path):
    """Start ``repro serve`` on an empty spool, let it settle, and read
    what the next IDLE_WINDOW_S cost it: (CPU seconds over every thread,
    from /proc schedstat; wall seconds; serve passes over its life;
    seconds it lived)."""
    def cpu_s(pid):
        return sum(int((task / "schedstat").read_text().split()[0])
                   for task in Path(f"/proc/{pid}/task").iterdir()) / 1e9

    metrics_file = spool / "metrics.json"
    born = time.monotonic()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spool", str(spool),
         "--workers", "1", "--idle-timeout", "600", "--metrics", str(metrics_file)],
        stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    try:
        time.sleep(IDLE_SETTLE_S)
        while not (spool / "status.json").exists():
            assert server.poll() is None, "repro serve did not come up"
            time.sleep(0.05)
        cpu0, t0 = cpu_s(server.pid), time.monotonic()
        time.sleep(IDLE_WINDOW_S)
        cpu, wall = cpu_s(server.pid) - cpu0, time.monotonic() - t0
        (spool / "serve.stop").write_text("stop\n")
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    lived = time.monotonic() - born
    counters = json.loads(metrics_file.read_text())["counters"]
    passes = sum(c["value"] for c in counters if c["name"] == "service.spool.passes")
    return cpu, wall, passes, lived


def test_idle_server_cost(benchmark, tmp_path):
    cpu, wall, passes, lived = benchmark.pedantic(
        idle_server, args=(tmp_path / "spool",), rounds=1, iterations=1
    )
    cpu_pct, passes_a_second = 100.0 * cpu / wall, passes / lived
    print(f"\nidle serve: {cpu_pct:.2f} % of a core over {wall:.1f} s, "
          f"{passes:.0f} passes in {lived:.1f} s ({passes_a_second:.1f} a second)")
    write_bench_artifact(
        "serve_idle",
        params={"settle_s": IDLE_SETTLE_S, "window_s": IDLE_WINDOW_S, "workers": 1},
        rows=[{"arm": "idle", "cpu_seconds": cpu, "cpu_pct": cpu_pct,
               "passes_a_second": passes_a_second}],
    )
    # the wait rule's 59-pass ramp, then its 50 ms cap: 20 passes a second
    assert passes_a_second <= 25.0
    assert cpu_pct <= 1.5, f"an idle server burns {cpu_pct:.2f} % of a core"
