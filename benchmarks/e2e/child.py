"""One workload in one fresh process.

``run.py`` starts this module once per workload so that ``peak_rss_mb``
is that workload's high-water mark and ``setup_s`` covers interpreter
start, ``import repro``, the scene build and the warm-up ops. The last
line of standard output is one JSON document; everything for humans
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import layers, spans
from benchmarks.e2e.stats import calibrate, midmean, percentile, summarize
from benchmarks.e2e.workloads import WORKLOADS, Workload

MIN_OPS = 30               #: a percentile over fewer ops is not reported
WARMUP_OPS = 2
OVERRUN = 1.6              #: the loop may run this multiple of --seconds to reach MIN_OPS
WALL_REF_EVERY = 10        #: wall-clock workloads sample the reference this often


@dataclass
class OpRecord:
    wall: float
    ok: bool
    rays: int = 0
    solved: bool = False
    traced: bool = False
    scale: float = 1.0      #: nominal / measured reference around this op
    root: Optional[spans.Span] = None
    stats: Optional[Dict[str, float]] = None

    @property
    def ms(self) -> float:
        """Op time on the workload's clock."""
        return self.wall * self.scale * 1e3


class Harness:
    """The closed loop of one client around a workload's ops."""

    def __init__(self, wl: Workload, ref) -> None:
        self.wl = wl
        self.ref = ref
        self.recorder = spans.Recorder()
        self.tracing = spans.Tracing(self.recorder, wl.targets)
        self._failure_shown = False

    def run_op(self, inp, op_id: int = -1, traced: bool = False) -> OpRecord:
        """One op: prepare, time ``run_op``, verify. A failure is counted,
        not raised; the first one's traceback goes to stderr."""
        wl = self.wl
        root = None
        try:
            prepared = wl.prepare(inp)
            if traced:
                self.recorder.op = op_id
                with self.tracing.active():
                    t0 = time.perf_counter()
                    with self.recorder.span("op", wl.root_layer) as root, \
                            self.recorder.adopting(root):
                        out = wl.run_op(prepared, traced=True)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = wl.run_op(prepared)
                wall = time.perf_counter() - t0
            if wall > wl.op_timeout_s:
                raise TimeoutError(f"op took {wall:.1f} s")
            result = wl.verify(prepared, out)
        except Exception:  # boundary: a failed op is a counted outcome
            if not self._failure_shown:
                self._failure_shown = True
                traceback.print_exc(file=sys.stderr)
            return OpRecord(wall=0.0, ok=False)
        return OpRecord(
            wall=wall, ok=True, rays=result.rays, solved=result.solved, traced=traced,
            root=root, stats=dict(wl.op_stats()) if traced else None,
        )

    def plan(self, inputs, trace: bool):
        """(input, traced) per op. Untraced run: each input once. Traced
        run of a repeatable op: each input twice, wrapped and bare in
        alternating order, so both halves do identical work and their
        ratio is the tracing overhead. Where an op cannot be repeated
        (a never-seen seed is seen the second time) every other op is
        wrapped instead."""
        for n, inp in enumerate(inputs):
            first = trace and n % 2 == 0
            yield inp, first
            if trace and self.wl.repeatable:
                yield inp, not first

    def timed_loop(self, inputs, seconds: float, trace: bool):
        calibrated = self.wl.clock == "calibrated"
        records: List[OpRecord] = []
        start = time.perf_counter()
        refs = [self.ref.time_once()]
        for op_id, (inp, traced) in enumerate(self.plan(inputs, trace)):
            record = self.run_op(inp, op_id, traced)
            if calibrated or (op_id + 1) % WALL_REF_EVERY == 0:
                refs.append(self.ref.time_once())
            if calibrated:
                record.scale = calibrate([1.0], refs[-2:], self.ref.nominal_s)[0]
            records.append(record)
            elapsed = time.perf_counter() - start
            done = sum(r.ok for r in records)
            if elapsed >= seconds and (done >= MIN_OPS or elapsed >= OVERRUN * seconds):
                break
        return records, refs


def end_to_end(records: List[OpRecord], setup_s: float, rss_mb: float) -> Dict[str, dict]:
    ok = [r for r in records if r.ok]
    solved = [r for r in ok if r.solved]
    if not ok or not solved:
        raise RuntimeError("no op completed; nothing to report")
    total_s = sum(r.ms for r in ok) / 1e3
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": percentile([r.ms for r in ok], 50), "unit": "ms"},
        "miss_ms_mid": {"value": midmean([r.ms for r in solved]), "unit": "ms"},
        "ops_per_s": {"value": len(ok) / total_s, "unit": "1/s"},
        "rays_per_s": {"value": sum(r.rays for r in ok) / total_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def overhead_ratios(wl: Workload, records: List[OpRecord]):
    """(traced / bare op-time ratios, the bare ops). Compares like with
    like: the two runs of one input where ops repeat, else (spool_mix)
    each traced hit with the median bare hit — hits are op_ms_p50 there."""
    if wl.repeatable:
        pairs = [p for p in zip(records[0::2], records[1::2]) if p[0].ok and p[1].ok]
        ratios = [a.ms / b.ms if a.traced else b.ms / a.ms for a, b in pairs]
        return ratios, [b if a.traced else a for a, b in pairs]
    hits = [r for r in records if r.ok and not r.solved]
    bare = [r for r in hits if not r.traced]
    base = percentile([r.ms for r in bare], 50)
    return [r.ms / base for r in hits if r.traced], bare


def per_layer(harness: Harness, records, refs, ratios, bare, extra) -> Dict[str, float]:
    by_op: Dict[int, List[spans.Span]] = {}
    for s in harness.recorder.spans:
        by_op.setdefault(s.op, []).append(s)
    rows = []
    for r in records:
        if r.ok and r.traced:
            rows.append(layers.op_layers(by_op[r.root.op], r.root, r.scale))
            rows.append(layers.scaled_stats(r.stats, r.scale))
    values = layers.median_layers(rows)
    values["trace_overhead_frac"] = percentile(ratios, 50) - 1.0
    values["op_wall_ms_p50"] = percentile([r.wall * 1e3 for r in bare], 50)
    values["op_ms_p90"] = percentile([r.ms for r in bare], 90)
    values["ref_ms_p50"] = percentile(refs, 50) * 1e3
    values["noise_ratio"] = percentile(refs, 50) / harness.ref.nominal_s
    values.update(extra)
    return values


def self_check(harness: Harness, values, ratios) -> List[str]:
    """Why a traced run cannot be trusted, if it cannot. One traced/bare
    ratio is as noisy as the box, so the overhead limit is tested on
    their lower quartile: it fails when three quarters of them exceed it."""
    problems = []
    if harness.wl.single_threaded and not 0.98 <= values["layer_sum_frac"] <= 1.02:
        problems.append(f"layer_sum_frac {values['layer_sum_frac']:.4f} outside [0.98, 1.02]")
    if percentile(ratios, 25) - 1.0 > 0.05:
        problems.append(
            f"trace_overhead_frac {values['trace_overhead_frac']:.4f}: above 0.05 "
            "on three quarters of the traced/bare comparisons"
        )
    problems += [f"rebound name never called: {n}" for n in harness.tracing.unhit()]
    return problems


def measure(args, wl: Workload, scratch: Path) -> Dict[str, object]:
    """Set up, warm up, run the timed loop and the checks."""
    from benchmarks.e2e.refkernel import ReferenceKernel

    ref = ReferenceKernel(wl.reference)
    ref.run()
    setup_refs = [ref.time_once()]
    harness = Harness(wl, ref)
    wl.setup(scratch, args.seed)
    inputs = wl.inputs(args.seed)
    for inp in inputs[-WARMUP_OPS:]:
        if not harness.run_op(inp).ok:
            raise RuntimeError("warm-up op failed")
    setup_refs.append(ref.time_once())
    setup_s = time.monotonic() - args.t0
    if wl.clock == "calibrated":
        # set-up is import and scene building, as CPU-bound as the ops
        setup_s = calibrate([setup_s], setup_refs, ref.nominal_s)[0]
    doc: Dict[str, object] = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        return doc

    trace = bool(args.trace)
    seconds = args.seconds - (wl.traced_reserve_s if trace else 0.0)
    records, refs = harness.timed_loop(inputs[:-WARMUP_OPS], seconds, trace)
    checks = []
    try:
        checks.append(wl.equivalence())
    except Exception:  # boundary: a failed check is a reported outcome
        traceback.print_exc(file=sys.stderr)
    extra = wl.traced_extras(harness, records) if trace else {}
    server = wl.teardown()
    rss_mb = server.pop(
        "server_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    ok = [r for r in records if r.ok]
    doc.update(
        attempted=len(records),
        failed=len(records) - len(ok),
        correct=bool(checks) and len(ok) == len(records),
        checks=checks,
        clock=wl.clock,
        scene=wl.scene,
        samples={"ops": len(ok), "solves": sum(r.solved for r in ok)},
        diagnostics={
            "op_wall_ms": summarize([r.wall * 1e3 for r in ok]),
            "op_ms": summarize([r.ms for r in ok]),
            "ref_ms": summarize([t * 1e3 for t in refs]),
        },
        end_to_end=end_to_end(records, doc["setup_s"], rss_mb),
    )
    if trace:
        ratios, bare = overhead_ratios(wl, records)
        values = per_layer(harness, records, refs, ratios, bare, {**extra, **server})
        doc["per_layer"] = layers.complete(values)
        doc["self_check"] = self_check(harness, values, ratios)
        if args.out:
            harness.recorder.write(Path(args.out) / "trace.json")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    if wl.clock == "calibrated" and hasattr(os, "sched_setaffinity"):
        # The reference kernel can only stand in for the core the op ran
        # on, so both stay on one core. It also takes pipeline_thin's two
        # rank threads out of the scheduler's hands: left free they flip
        # between sharing a core (0.27 s/op) and convoying on the GIL
        # across two (0.73 s/op), which no clock can calibrate away.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        doc = measure(args, wl, scratch)
    finally:
        wl.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
