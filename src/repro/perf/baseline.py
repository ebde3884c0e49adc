"""Perf regression gate: compare fresh BENCH artifacts against baselines.

Every benchmark script writes a ``BENCH_<name>.json`` artifact (see
:mod:`repro.perf.harness`). This module turns a *pair* of those
artifact sets — a committed baseline under ``benchmarks/baselines/``
and a fresh run — into a verdict:

* rows are matched by their identity columns (strings and integer
  parameters such as ``pool``/``threads``/``patch``);
* float columns are metrics, classified **lower-is-better** (times:
  ``mean_s``, ``us_per_message``) or **higher-is-better** (rates:
  ``messages_per_s``, ``cell_rays_per_s``, ``speedup``) by name;
* each metric is compared as a current/baseline ratio, normalised to
  a **slowdown factor** (>1 means slower regardless of direction);
* the verdict is *noise-aware*: one jittery row does not fail the
  gate. A regression is **confirmed** when a benchmark's geometric
  mean slowdown exceeds the tolerance (default 2.5x — committed
  baselines come from a different machine) or any single metric blows
  past the hard limit (default 6x). Thread-contention benchmarks on
  shared CI runners routinely swing 2-3x on one row; a real slowdown
  moves *every* row, and the geomean sees the difference.

The output is ``regression_report.json`` plus a pass/fail exit code:
the CI ``perf-gate`` job. ``--inject-slowdown F`` multiplies the fresh
run's time metrics by ``F`` (and divides its rates) before comparing —
the gate's self-test, proving it actually fails when the tree gets
slower (``--expect-regression`` inverts the exit code for that leg).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import PerfError

#: Substrings marking a metric as higher-is-better (checked first —
#: ``cell_rays_per_s`` must not fall through to the ``_s`` time rule).
HIGHER_IS_BETTER = ("per_s", "per_sec", "throughput", "speedup", "hit_rate")

#: Substring / suffix rules for lower-is-better metrics (times).
LOWER_IS_BETTER = ("us_per", "ns_per", "ms_per", "latency", "seconds", "time")

#: Below this absolute baseline value a ratio is all noise — skip.
MIN_MEANINGFUL_BASELINE = 1e-9


def metric_direction(name: str) -> Optional[str]:
    """Classify a column name: ``"higher"``, ``"lower"``, or ``None``."""
    low = name.lower()
    if any(h in low for h in HIGHER_IS_BETTER):
        return "higher"
    if any(h in low for h in LOWER_IS_BETTER) or low.endswith("_s"):
        return "lower"
    return None


def row_key(row: Mapping) -> Tuple:
    """A row's identity: its non-metric columns, sorted.

    Strings and bools always key; ints key unless their name reads as
    a metric (``threads``/``patch`` are parameters, a hypothetical
    integer ``time_ms`` is not). Floats are never identity.
    """
    parts = []
    for k in sorted(row):
        v = row[k]
        if isinstance(v, str) or isinstance(v, bool):
            parts.append((k, v))
        elif isinstance(v, int) and metric_direction(k) is None:
            parts.append((k, v))
    return tuple(parts)


def _metrics(row: Mapping) -> Dict[str, float]:
    out = {}
    for k, v in row.items():
        if isinstance(v, bool):
            continue
        if isinstance(v, (int, float)) and metric_direction(k) is not None:
            out[k] = float(v)
    return out


def load_artifact(path) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PerfError(f"unreadable bench artifact {path}: {exc}") from exc
    if not isinstance(payload, dict) or "rows" not in payload:
        raise PerfError(f"{path} is not a BENCH artifact (no rows)")
    return payload


def inject_slowdown(payload: dict, factor: float) -> dict:
    """Return a copy of *payload* made ``factor``x slower.

    Time metrics are multiplied, rate metrics divided — the synthetic
    regression the gate's self-test must catch.
    """
    if factor <= 0:
        raise PerfError(f"slowdown factor must be positive, got {factor}")
    slowed = json.loads(json.dumps(payload))
    for row in slowed.get("rows", []):
        for k, v in list(row.items()):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            direction = metric_direction(k)
            if direction == "lower":
                row[k] = float(v) * factor
            elif direction == "higher":
                row[k] = float(v) / factor
    return slowed


def compare_artifacts(
    baseline: dict,
    current: dict,
    *,
    tolerance: float = 2.5,
) -> List[dict]:
    """Compare every matched (row, metric) pair; return comparisons.

    ``ratio`` is always current/baseline; ``slowdown`` normalises it
    so >1 means *slower* for both directions. A single metric past the
    tolerance is only a ``suspect`` — confirmation happens bench-wide
    in :func:`summarize_bench`.
    """
    if tolerance <= 1.0:
        raise PerfError(f"tolerance must exceed 1.0, got {tolerance}")
    base_rows = {row_key(r): r for r in baseline.get("rows", [])}
    comparisons: List[dict] = []
    name = current.get("name") or baseline.get("name") or "?"
    for row in current.get("rows", []):
        key = row_key(row)
        base = base_rows.get(key)
        if base is None:
            comparisons.append({
                "bench": name,
                "row": dict(key),
                "metric": None,
                "status": "new-row",
            })
            continue
        base_metrics = _metrics(base)
        for metric, value in _metrics(row).items():
            ref = base_metrics.get(metric)
            if ref is None:
                continue
            direction = metric_direction(metric)
            if abs(ref) < MIN_MEANINGFUL_BASELINE or ref < 0 or value <= 0:
                status, ratio, slowdown = "skipped", None, None
            else:
                ratio = value / ref
                slowdown = ratio if direction == "lower" else 1.0 / ratio
                status = "suspect" if slowdown > tolerance else "ok"
            comparisons.append({
                "bench": name,
                "row": dict(key),
                "metric": metric,
                "direction": direction,
                "baseline": ref,
                "current": value,
                "ratio": ratio,
                "slowdown": slowdown,
                "status": status,
            })
    return comparisons


def summarize_bench(
    name: str,
    comparisons: Sequence[Mapping],
    *,
    tolerance: float = 2.5,
    hard_limit: float = 6.0,
) -> dict:
    """Fold one benchmark's comparisons into a confirmed/clean verdict.

    Confirmed when the geometric mean slowdown exceeds *tolerance*
    (every row got slower — that is not noise) or any single metric
    exceeds *hard_limit* (one kernel fell off a cliff).
    """
    compared = [
        c for c in comparisons
        if c["bench"] == name and c.get("slowdown") is not None
    ]
    factors = [c["slowdown"] for c in compared]
    suspects = [
        c for c in comparisons
        if c["bench"] == name and c["status"] == "suspect"
    ]
    geomean = None
    if factors:
        geomean = math.exp(sum(math.log(f) for f in factors) / len(factors))
    # the comparison behind the worst slowdown, named so it can be traced
    worst = max(compared, key=lambda c: c["slowdown"]) if compared else None
    worst_slowdown = worst["slowdown"] if worst else None
    confirmed = bool(
        (geomean is not None and geomean > tolerance)
        or (worst_slowdown is not None and worst_slowdown > hard_limit)
    )
    return {
        "bench": name,
        "metrics_compared": len(factors),
        "suspects": len(suspects),
        "geomean_slowdown": geomean,
        "worst_slowdown": worst_slowdown,
        "worst_row": worst["row"] if worst else None,
        "worst_metric": worst["metric"] if worst else None,
        "confirmed_regression": confirmed,
    }


def discover_artifacts(directory) -> List[Path]:
    return sorted(Path(directory).glob("BENCH_*.json"))


def run_gate(
    current_dir,
    baseline_dir,
    *,
    tolerance: float = 2.5,
    hard_limit: float = 6.0,
    slowdown: Optional[float] = None,
    out_path=None,
    names: Optional[Sequence[str]] = None,
) -> dict:
    """Compare every baseline artifact against its fresh counterpart.

    A baseline with no fresh artifact is itself a failure — a
    benchmark silently vanishing must not read as "no regressions".
    Returns the report dict (also written to *out_path* atomically).
    """
    baseline_dir = Path(baseline_dir)
    current_dir = Path(current_dir)
    baselines = discover_artifacts(baseline_dir)
    if names:
        wanted = {f"BENCH_{n}.json" for n in names}
        baselines = [p for p in baselines if p.name in wanted]
    if not baselines:
        raise PerfError(f"no BENCH_*.json baselines under {baseline_dir}")

    comparisons: List[dict] = []
    benches: List[dict] = []
    missing: List[str] = []
    for base_path in baselines:
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            missing.append(base_path.name)
            continue
        base = load_artifact(base_path)
        cur = load_artifact(cur_path)
        if slowdown is not None:
            cur = inject_slowdown(cur, slowdown)
        cmp = compare_artifacts(base, cur, tolerance=tolerance)
        comparisons.extend(cmp)
        bench_name = cur.get("name") or base.get("name") or base_path.stem
        benches.append(
            summarize_bench(
                bench_name, cmp, tolerance=tolerance, hard_limit=hard_limit
            )
        )

    regressions = [b for b in benches if b["confirmed_regression"]]
    suspects = [c for c in comparisons if c["status"] == "suspect"]
    report = {
        "schema": 1,
        "tolerance": tolerance,
        "hard_limit": hard_limit,
        "injected_slowdown": slowdown,
        "baseline_dir": str(baseline_dir),
        "current_dir": str(current_dir),
        "artifacts_compared": len(baselines) - len(missing),
        "missing_artifacts": missing,
        "comparisons": len(comparisons),
        "benches": benches,
        "suspects": suspects,
        "regressions": regressions,
        "passed": not regressions and not missing,
    }
    if out_path is not None:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(out_path, json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> str:
    verdict = "PASS" if report["passed"] else "FAIL"
    lines = [
        f"perf gate: {verdict}  "
        f"({report['comparisons']} comparisons across "
        f"{report['artifacts_compared']} artifact(s), "
        f"tolerance {report['tolerance']}x geomean, "
        f"hard limit {report['hard_limit']}x"
        + (f", injected slowdown {report['injected_slowdown']}x"
           if report.get("injected_slowdown") else "")
        + ")",
    ]
    for name in report.get("missing_artifacts", []):
        lines.append(f"  MISSING: {name} has a baseline but no fresh run")
    def describe(row):
        return " ".join(f"{k}={v}" for k, v in sorted(row.items()))

    for b in report.get("benches", []):
        state = "REGRESSION" if b["confirmed_regression"] else "ok"
        geo = b["geomean_slowdown"]
        worst = b["worst_slowdown"]
        lines.append(
            f"  {b['bench']:<24} {state:<10} "
            f"geomean {geo:.2f}x, worst {worst:.2f}x "
            f"({b['worst_metric']} [{describe(b['worst_row'])}]), "
            f"{b['suspects']}/{b['metrics_compared']} suspect metric(s)"
            if geo is not None and worst is not None
            else f"  {b['bench']:<24} {state:<10} no comparable metrics"
        )
    for c in report.get("suspects", []):
        row = describe(c["row"])
        lines.append(
            f"    suspect: {c['bench']} [{row}] {c['metric']} "
            f"{c['baseline']:.4g} -> {c['current']:.4g} "
            f"({c['slowdown']:.2f}x slower, {c['direction']}-is-better)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro perfgate",
        description="Compare fresh BENCH_<name>.json artifacts against "
        "committed baselines; fail on regression.",
    )
    parser.add_argument(
        "--bench-dir", default=".", help="directory with fresh artifacts"
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory with committed baseline artifacts",
    )
    parser.add_argument("--tolerance", type=float, default=2.5)
    parser.add_argument(
        "--hard-limit",
        type=float,
        default=6.0,
        help="any single metric this many times slower confirms on its own",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=None,
        metavar="F",
        help="self-test: make the fresh run F times slower before comparing",
    )
    parser.add_argument("--out", default="regression_report.json")
    parser.add_argument(
        "--name",
        action="append",
        dest="names",
        help="only gate this benchmark (repeatable)",
    )
    parser.add_argument(
        "--expect-regression",
        action="store_true",
        help="invert the exit code: succeed only if a regression was found "
        "(the self-test leg)",
    )
    args = parser.parse_args(argv)

    try:
        report = run_gate(
            args.bench_dir,
            args.baseline_dir,
            tolerance=args.tolerance,
            hard_limit=args.hard_limit,
            slowdown=args.inject_slowdown,
            out_path=args.out,
            names=args.names,
        )
    except PerfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    if args.expect_regression:
        if report["passed"]:
            print(
                "error: expected the gate to detect a regression, "
                "but it passed",
                file=sys.stderr,
            )
            return 1
        print("self-test ok: injected regression was detected")
        return 0
    return 0 if report["passed"] else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
