"""Command-line front end.

``python -m repro <input.ups>`` runs a Burns & Christon RMCRT problem
from a Uintah-style UPS input file and prints solve statistics plus the
centreline del.q profile — the closest thing to ``sus input.ups`` this
reproduction offers.

``python -m repro profile`` runs a small instrumented simulation and
writes ``trace.json`` (Chrome trace-event JSON — load in
chrome://tracing or Perfetto) and ``metrics.json`` (every runtime
metric series).

``python -m repro serve --spool DIR`` runs the radiation-solve service
against a spool directory; ``python -m repro submit file.ups ...``
pushes requests through it (in-process, or cross-process via
``--spool``). See :mod:`repro.service.cli`.

``python -m repro status --spool DIR`` renders the service's SLO
dashboard (p50/p95/p99, error-budget burn, breaches) one-shot or with
``--watch``.

``python -m repro analyze`` runs the trace analytics engine — critical
path, per-rank compute/comm-wait/idle attribution, speedup bounds —
over a merged trace, a fresh profile run, or a tracesim simulation,
and writes ``analysis_report.json``. See :mod:`repro.perf.analyze`.

``python -m repro perfgate`` compares fresh ``BENCH_<name>.json``
artifacts against the committed baselines in ``benchmarks/baselines/``
and fails on regression. See :mod:`repro.perf.baseline`.

``python -m repro check [lint|graph|races|leaks|fs|protocol|all]``
runs the correctness tooling — the CI gate (``--list-rules``
enumerates every rule). See :mod:`repro.check.cli`.

``python -m repro resilience [checkpoint|restore|drill]`` exercises
checkpoint/restart and the kill-and-recover drill. See
:mod:`repro.resilience.cli`.

``python -m repro fabric [up|route|status|down|drill]`` runs the
multi-shard service fabric: scene-affinity routing across N serve
shards, work stealing, heartbeat-based failure recovery, and
SLO-driven autoscaling. See :mod:`repro.fabric.cli`.

``python -m repro spectral [smoke|run|enclosure]`` exercises the
wavelength-sampled spectral radiation subsystem: the CI smoke
cross-check, named spectral scenarios, and the view-factor enclosure
solver. See :mod:`repro.radiation.spectral.cli`.

``python -m repro doctor [live|postmortem|drill]`` runs the automated
root-cause doctor: it correlates streaming anomaly detections (tsdb
replay through :mod:`repro.perf.detect`), fabric supervisor events,
flight-recorder postmortems, and status facts into a ranked hypothesis
list, and its ``drill`` mode injects three known causes and requires
the top hypothesis to name each one. See :mod:`repro.perf.doctor`.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.util.errors import ReproError


def _run_ups(argv) -> int:
    from repro.radiation.benchmark import BurnsChristonBenchmark
    from repro.ups import parse_ups, run_ups

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run an RMCRT benchmark from a UPS input file.",
    )
    parser.add_argument("ups", help="path to the UPS XML input file")
    parser.add_argument(
        "--centerline",
        action="store_true",
        help="print the centreline del.q profile",
    )
    args = parser.parse_args(argv)

    try:
        spec = parse_ups(args.ups)
        result = run_ups(spec)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    g, r, s = spec.grid, spec.rmcrt, spec.scheduler
    print(
        f"grid {g.resolution}^3 x {g.levels} level(s) RR:{g.refinement_ratio}"
        + (f", patches {g.patch_size}^3" if g.patch_size else "")
    )
    print(f"RMCRT: {r.n_divq_rays} rays/cell, threshold {r.threshold}, "
          f"halo {r.halo}, scheduler {s.type}"
          + (f" x{s.ranks} ranks ({s.pool})" if s.type == "distributed" else ""))
    print(f"rays traced: {result.rays_traced:,}")
    print(f"solve time:  {result.solve_time_s:.3f} s")
    print(f"del.q: mean {result.divq.mean():.4f}, max {result.divq.max():.4f}")

    if args.centerline:
        bench = BurnsChristonBenchmark(resolution=g.resolution)
        x, line = bench.centerline(result.divq)
        print(f"\n{'x':>8} {'divQ':>10}")
        for xi, v in zip(x, line):
            print(f"{xi:8.3f} {v:10.4f}")
    return 0


#: sub-command -> (module, function taking the remaining argv); a
#: command's module is imported only when that command runs
COMMANDS = {
    "profile": ("repro.perf.profile", "cmd_profile"),
    "serve": ("repro.service.cli", "cmd_serve"),
    "submit": ("repro.service.cli", "cmd_submit"),
    "status": ("repro.service.cli", "cmd_status"),
    "analyze": ("repro.perf.analyze", "cmd_analyze"),
    "perfgate": ("repro.perf.baseline", "main"),
    "check": ("repro.check.cli", "run_check"),
    "resilience": ("repro.resilience.cli", "run_resilience"),
    "fabric": ("repro.fabric.cli", "cmd_fabric"),
    "spectral": ("repro.radiation.spectral.cli", "cmd_spectral"),
    "doctor": ("repro.perf.doctor", "cmd_doctor"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        module, function = COMMANDS[argv[0]]
        return getattr(importlib.import_module(module), function)(argv[1:])
    return _run_ups(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
