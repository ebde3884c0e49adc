"""``python -m repro check`` — the correctness-tooling entry point.

Subcommands run one analyzer each; ``all`` runs the suite and is the
CI gate (exit 1 on any non-suppressed finding):

* ``lint``     — AST project linter over ``src/repro``
* ``graph``    — static validation of the three-level RMCRT task graph
* ``races``    — lockset/vector-clock drive of the comm pools
* ``leaks``    — allocator lifetime check over the RMCRT small-object
  workload
* ``fs``       — crash-consistency analysis of the write-then-rename
  discipline over service/fabric/resilience/util
* ``protocol`` — exhaustive model check of the spool claim/re-home
  protocol (plus its no-journal variant) with crash points after
  every transition

``--seeded-defects`` switches every analyzer onto its seeded-defect
fixture (an upward import for the layer rule, the legacy racy pool, a
deliberately broken task graph, the
double-free/use-after-retire/leak scenarios, non-atomic/misordered
filesystem publication, the early-settle / journal-before-claim /
copy-claim protocol variants) — the self-test that the detectors
still detect; there the expected exit code is non-zero. ``--json
PATH`` additionally writes the structured report (the CI artifact).
``--list-rules`` enumerates every rule across all analyzers with
severity and description instead of running anything.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.check.findings import CheckReport

#: repo root (src/repro/check/cli.py -> three parents up from src)
REPO_ROOT = Path(__file__).resolve().parents[3]

RACE_DRIVE = dict(num_threads=4, num_messages=32, unpack_delay=2e-3)


# ----------------------------------------------------------------------
# graph fixtures
# ----------------------------------------------------------------------
def demo_taskgraph():
    """The three-level RMCRT task graph (uncompiled) — the clean tree."""
    from repro.core.distributed import DistributedRMCRT, benchmark_property_init
    from repro.grid import Box, Grid, decompose_level
    from repro.radiation import BurnsChristonBenchmark

    fine = 16
    grid = Grid()
    grid.add_level(Box.cube(fine // 4), (4.0 / fine,) * 3)
    grid.add_level(Box.cube(fine // 2), (2.0 / fine,) * 3, refinement_ratio=(2, 2, 2))
    level = grid.add_level(Box.cube(fine), (1.0 / fine,) * 3, refinement_ratio=(2, 2, 2))
    decompose_level(level, (8, 8, 8))
    drm = DistributedRMCRT(
        grid,
        benchmark_property_init(BurnsChristonBenchmark(resolution=fine)),
        rays_per_cell=8,
        halo=2,
        seed=4,
    )
    return drm.build_taskgraph()


def broken_taskgraph():
    """A graph seeded with a dangling consumer and an unordered
    write-write pair — the validator's self-test fixture."""
    from repro.dw.label import cc
    from repro.grid import Box, Grid, decompose_level
    from repro.runtime.task import Computes, Requires, Task
    from repro.runtime.taskgraph import TaskGraph

    grid = Grid()
    level = grid.add_level(Box.cube(8), (1.0 / 8,) * 3)
    decompose_level(level, (4, 4, 4))
    phi = cc("phi")
    out = cc("out")
    missing = cc("never_computed")

    def noop(ctx):  # pragma: no cover - never executed
        pass

    tg = TaskGraph(grid)
    tg.add_task(Task("writerA", noop, computes=[Computes(phi)]), 0)
    tg.add_task(Task("writerB", noop, computes=[Computes(phi)]), 0)
    tg.add_task(
        Task(
            "consumer",
            noop,
            requires=[Requires(missing, num_ghost=1)],
            computes=[Computes(out)],
        ),
        0,
    )
    return tg


# ----------------------------------------------------------------------
# per-analyzer runs
# ----------------------------------------------------------------------
def run_lint(paths=None, seeded_defects: bool = False) -> CheckReport:
    from repro.check.lint import lint_paths, run_lint_fixture

    if seeded_defects:
        findings, suppressed = run_lint_fixture()
        report = CheckReport(suppressed=suppressed)
        report.extend(findings, check="lint")
        report.meta["lint"] = {"fixture": "layer-violation, unused-import"}
        return report
    targets = list(paths) if paths else [str(REPO_ROOT / "src" / "repro")]
    findings, suppressed, scanned = lint_paths(targets, root=REPO_ROOT)
    report = CheckReport(suppressed=suppressed)
    report.extend(findings, check="lint")
    report.meta["lint"] = {"files_scanned": scanned, "paths": targets}
    return report


def run_graph(seeded_defects: bool = False) -> CheckReport:
    from repro.check.graph import validate_compiled, validate_taskgraph
    from repro.grid.loadbalance import LoadBalancer

    report = CheckReport()
    if seeded_defects:
        tg = broken_taskgraph()
        report.extend(validate_taskgraph(tg), check="graph")
        report.meta["graph"] = {"fixture": "broken", "tasks": len(tg._entries)}
        return report
    tg = demo_taskgraph()
    report.extend(validate_taskgraph(tg), check="graph")
    num_ranks = 4
    fine = tg.grid.finest_level
    assignment = LoadBalancer(num_ranks).assign(fine.patches)
    compiled = tg.compile(assignment=assignment, num_ranks=num_ranks, validate=False)
    report.extend(validate_compiled(compiled), check="graph")
    meta = report.meta["graph"] = {
        "fixture": "rmcrt-three-level",
        "ranks": num_ranks,
        "detailed_tasks": len(compiled.detailed_tasks),
        "messages": len(compiled.messages),
        "parts": sum(len(msg.parts) for msg in compiled.messages),
        "message_bytes": compiled.total_message_bytes,
    }
    print(
        "{fixture} on {ranks} ranks: {detailed_tasks} detailed tasks, "
        "{messages} messages carrying {parts} parts, {message_bytes} bytes".format(**meta)
    )
    return report


def run_races(seeded_defects: bool = False) -> CheckReport:
    from repro.check.races import drive_pool_contended

    report = CheckReport()
    kinds = ("legacy-racy",) if seeded_defects else ("waitfree", "locked")
    meta = {}
    for kind in kinds:
        det = drive_pool_contended(kind, **RACE_DRIVE)
        report.extend(det.findings, check="races")
        meta[kind] = {
            "races": det.race_count,
            "racy_locations": len(det.distinct_locations()),
        }
    report.meta["races"] = meta
    return report


def run_leaks(seeded_defects: bool = False) -> CheckReport:
    from repro.check.leaks import check_workload, run_leak_fixture

    report = CheckReport()
    meta = {}
    if seeded_defects:
        for fixture in ("double-free", "use-after-retire", "leak"):
            alloc = run_leak_fixture(fixture)
            report.extend(alloc.findings, check="leaks")
            meta[fixture] = {"findings": len(alloc.findings)}
    else:
        alloc = check_workload()
        report.extend(alloc.findings, check="leaks")
        meta["workload"] = {
            "allocs": alloc.allocs,
            "frees": alloc.frees,
            "findings": len(alloc.findings),
        }
    report.meta["leaks"] = meta
    return report


def run_fs(paths=None, seeded_defects: bool = False) -> CheckReport:
    from repro.check import fs

    report = CheckReport()
    if seeded_defects:
        meta = {}
        for fixture in sorted(fs.SEEDED_FIXTURES):
            findings = fs.run_fs_fixture(fixture)
            report.extend(findings, check="fs")
            meta[fixture] = {"findings": len(findings)}
        report.meta["fs"] = meta
        return report
    targets = ([Path(p) for p in paths] if paths
               else fs.default_scope(REPO_ROOT))
    findings, suppressed, stats = fs.check_paths(targets, root=REPO_ROOT)
    report.suppressed = suppressed
    report.extend(findings, check="fs")
    report.meta["fs"] = stats
    return report


def run_protocol(seeded_defects: bool = False) -> CheckReport:
    import time

    from repro.check import protocol

    report = CheckReport()
    meta = {}
    if seeded_defects:
        for defect in sorted(protocol.DEFECT_RULES):
            result = protocol.run_protocol_fixture(defect)
            if not result.ok:
                report.findings.append(result.to_finding(f"spool+{defect}"))
            meta[defect] = {
                "states": result.states,
                "transitions": result.transitions,
                "trace_steps": len(result.trace),
                "rule": result.rule,
            }
        report.meta["protocol"] = meta
        return report
    t0 = time.perf_counter()
    for name, result in protocol.verify_protocol():
        if not result.ok:
            report.findings.append(result.to_finding(name))
        meta[name] = {
            "states": result.states,
            "transitions": result.transitions,
            "quiescent": result.terminals,
            "clean": result.ok,
        }
    meta["wall_s"] = round(time.perf_counter() - t0, 3)
    report.meta["protocol"] = meta
    return report


CHECKS = {
    "lint": lambda ns: run_lint(ns.paths, ns.seeded_defects),
    "graph": lambda ns: run_graph(ns.seeded_defects),
    "races": lambda ns: run_races(ns.seeded_defects),
    "leaks": lambda ns: run_leaks(ns.seeded_defects),
    "fs": lambda ns: run_fs(ns.paths, ns.seeded_defects),
    "protocol": lambda ns: run_protocol(ns.seeded_defects),
}


def collect_rules() -> list:
    """Every rule across all analyzers: (check, rule, severity,
    description) in a stable order."""
    from repro.check import fs, graph, leaks, lint, protocol, races

    catalogs = [
        ("lint", lint.RULES),
        ("graph", graph.RULES),
        ("races", races.RULES),
        ("leaks", leaks.RULES),
        ("fs", fs.RULES),
        ("protocol", protocol.RULES),
    ]
    out = []
    for check, rules in catalogs:
        for rule in sorted(rules):
            severity, description = rules[rule]
            out.append({
                "check": check,
                "rule": rule,
                "severity": severity,
                "description": description,
            })
    return out


def render_rules(rows: list) -> str:
    width = max(len(r["rule"]) for r in rows)
    lines = []
    current = None
    for r in rows:
        if r["check"] != current:
            current = r["check"]
            lines.append(f"== {current} ==")
        lines.append(
            f"  {r['rule']:<{width}}  {r['severity']:<7}  "
            f"{r['description']}"
        )
    return "\n".join(lines)


def run_check(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="repro correctness tooling: lint, graph validation, "
        "race detection, allocator checking",
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default="all",
        choices=sorted(CHECKS) + ["all"],
        help="analyzer to run (default: all)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (lint subcommand only; "
        "default src/repro)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured report to PATH",
    )
    parser.add_argument(
        "--seeded-defects",
        action="store_true",
        help="run the analyzers against their seeded-defect fixtures "
        "(detector self-test; expected to fail)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="enumerate every rule across all analyzers (with --json, "
        "write the catalog as JSON) and exit",
    )
    ns = parser.parse_args(argv)

    if ns.list_rules:
        rows = collect_rules()
        print(render_rules(rows))
        if ns.json:
            import json

            from repro.util.atomic import atomic_write_text

            atomic_write_text(
                Path(ns.json),
                json.dumps({"rules": rows}, indent=2, sort_keys=True)
                + "\n",
            )
            print(f"rule catalog written to {ns.json}")
        return 0

    names = sorted(CHECKS) if ns.subcommand == "all" else [ns.subcommand]
    report = CheckReport()
    for name in names:
        print(f"== repro check {name} ==")
        report.merge(CHECKS[name](ns))
    print(report.render_text())
    if ns.json:
        report.write_json(ns.json)
        print(f"report written to {ns.json}")
    return report.exit_code
