"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e --seed N --out DIR [--trace]

Runs the named workload (or all four, one after another), each in a
fresh child process pinned to one numeric thread, prints every metric by
name with its unit and sample counts, and ends with one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``. Exits non-zero if an output check or the
traced run's self-check fails.

This parent imports neither numpy nor ``repro``: everything measured
happens in the children.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("longmarch_reflect", "onion_fat", "pipeline_thin", "spool_mix")
SETUPS = 3                  #: set-ups per run; setup_s is their median
RUN_DEADLINE_S = 170.0      #: one workload, set-ups included, must end by then
SCRATCH = ROOT / ".bench_e2e"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out: Optional[Path], setup_only: bool, tag: str, deadline: float) -> dict:
    """One child process, killed with everything it started if it is
    still running at ``deadline``; returns the JSON document of its last
    line."""
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
        "--scratch", str(SCRATCH / f"tmp-{os.getpid()}-{tag}"),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if out is not None:
        cmd += ["--out", str(out)]
    # own session: on a timeout the child's server goes down with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out: Optional[Path]) -> dict:
    """SETUPS set-ups (all but the last stop right after), then the run."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [
        run_child(workload, seed, seconds, 0, None, True, f"s{i}", deadline)["setup_s"]
        for i in range(SETUPS - 1)
    ]
    doc = run_child(workload, seed, seconds, trace, out, False, "run", deadline)
    setups.append(doc["setup_s"])
    doc["setup_samples_s"] = setups
    doc["end_to_end"]["setup_s"]["value"] = statistics.median(setups)
    return doc


def report(doc: dict) -> None:
    """Every metric by name, with unit and sample counts."""
    n = doc["samples"]
    print(f"== {doc['workload']} (seed {doc['seed']}, clock {doc['clock']}): "
          f"{doc['attempted']} ops attempted, {doc['failed']} failed")
    counts = {"op_ms_p50": n["ops"], "miss_ms_mid": n["solves"],
              "ops_per_s": n["ops"], "rays_per_s": n["solves"],
              "setup_s": len(doc["setup_samples_s"])}
    for name, m in doc["end_to_end"].items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}{samples}")
    for name, d in doc["diagnostics"].items():
        print(f"  ~ {name:<26} p50 {d['p50']:.3f}  p90 {d['p90']:.3f}  (n={d['n']}, not gated)")
    for name, m in doc.get("per_layer", {}).items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    for line in doc["checks"]:
        print(f"  check: {line}")
    for line in doc.get("self_check", []):
        print(f"  SELF-CHECK FAILED: {line}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="directory for results.json, layers.json, <workload>/trace.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    out = Path(args.out).resolve() if args.out else None
    names = [args.workload] if args.workload else list(WORKLOADS)
    docs: List[dict] = []
    try:
        for name in names:
            doc = run_workload(name, args.seed, args.seconds, args.trace,
                               out / name if out else None)
            report(doc)
            docs.append(doc)
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    if out is not None:
        (out / "results.json").write_text(json.dumps({d["workload"]: d for d in docs}, indent=1))
        if args.trace:
            (out / "layers.json").write_text(
                json.dumps({d["workload"]: d["per_layer"] for d in docs}, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(docs) > 1
    metrics = {
        (f"{d['workload']}.{name}" if prefix else name): m
        for d in docs for name, m in d[section].items()
    }
    correct = all(d["correct"] for d in docs)
    trusted = not any(d.get("self_check") for d in docs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0 if correct and trusted else 1


if __name__ == "__main__":
    sys.exit(main())
