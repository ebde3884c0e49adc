"""Do two sets of runs agree within the benchmark's own bounds?

    python3 benchmarks/e2e/agree.py A_DIR B_DIR

Each directory holds one sub-directory per run, written by
``python -m benchmarks.e2e --out A_DIR/<run>``. For every end-to-end
metric x workload pairing this prints one row: both medians, the change
from A to B in the metric's worse direction as a share of A's median,
both inter-quartile spreads, and a verdict:

``ok``          B is not worse than A by more than the bound
``BREACH``      it is
``unresolved``  a set's own spread exceeds the bound, so the sets cannot
                tell a change of that size from noise

The uncalibrated ``op_wall_ms_p50`` is listed too, judged against
``op_ms_p50``'s bound but never gated: it shows what the calibrated
clock buys. Exits non-zero on any breach. This is how "same code, two
times of day" is checked, and how a later PR reads parent against change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.stats import iqr_share  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load_set(directory: Path) -> Dict[Key, List[float]]:
    """Every run's value per (workload, metric) under ``directory``."""
    values: Dict[Key, List[float]] = {}
    for results in sorted(directory.glob("*/results.json")):
        for workload, doc in json.loads(results.read_text()).items():
            for metric, m in doc["end_to_end"].items():
                values.setdefault((workload, metric), []).append(m["value"])
            values.setdefault((workload, "op_wall_ms_p50"), []).append(
                doc["diagnostics"]["op_wall_ms"]["p50"]
            )
    if not values:
        raise SystemExit(f"no */results.json under {directory}")
    return values


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """(change in the worse direction as a share of A's median, spread
    of A, spread of B, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a if better == "lower" else med_a - med_b) / abs(med_a)
    spread_a, spread_b = iqr_share(a), iqr_share(b)
    if max(spread_a, spread_b) > bound:
        word = "unresolved"
    elif worse > bound:
        word = "BREACH"
    else:
        word = "ok"
    return worse, spread_a, spread_b, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    shown = dict(gated, op_wall_ms_p50=dict(gated["op_ms_p50"], name="op_wall_ms_p50"))
    set_a, set_b = load_set(Path(argv[0])), load_set(Path(argv[1]))

    print(f"{'workload':<18} {'metric':<15} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'bound':>6} {'iqr A':>6} {'iqr B':>6}  verdict")
    breaches = 0
    for (workload, metric), a in sorted(set_a.items()):
        b = set_b.get((workload, metric))
        if b is None or len(a) < 2 or len(b) < 2:
            continue
        m = shown[metric]
        worse, spread_a, spread_b, word = verdict(a, b, m["better"], m["bound"])
        if metric not in gated:
            word = f"({word}, not gated)"
        elif word == "BREACH":
            breaches += 1
        print(f"{workload:<18} {metric:<15} {statistics.median(a):>12.4f} "
              f"{statistics.median(b):>12.4f} {worse:>+9.2%} {m['bound']:>6.0%} "
              f"{spread_a:>6.1%} {spread_b:>6.1%}  {word}")
    print(f"{breaches} breach(es); runs per set: "
          f"{len(next(iter(set_a.values())))} and {len(next(iter(set_b.values())))}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
