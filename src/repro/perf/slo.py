"""SLO monitoring: streaming quantiles, error budgets, degradation.

The service layer (repro.service) promises latency, not just
correctness; this module is where that promise becomes measurable and
enforceable without retaining samples:

* :class:`P2Quantile` — the Jain & Chlamtac P² algorithm: one
  streaming quantile estimate from five markers, O(1) memory and time
  per observation, no sample buffer. Good to a few percent on smooth
  distributions, which is all a burn-rate alarm needs.
* :class:`EndpointStats` — a per-endpoint bundle of P² sketches
  (p50/p95/p99), counts, and error tally.
* :class:`SloPolicy` / :class:`SloMonitor` — thresholds (p99 latency,
  queue depth, error-budget burn) evaluated into a status snapshot;
  when any threshold is breached the monitor reports the service
  **degraded**, and the service responds by shrinking its admission
  window so the existing bounded-queue backpressure sheds load.

``python -m repro status`` renders a monitor snapshot one-shot or as a
``--watch`` dashboard (see :mod:`repro.__main__`).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.util.errors import PerfError


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Five markers track (min, q/2, q, (1+q)/2, max); marker heights are
    nudged toward their ideal positions with a piecewise-parabolic
    interpolation on every observation. Memory is five floats — the
    whole point: per-endpoint p99 over an unbounded request stream with
    nothing retained.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise PerfError(f"P2Quantile needs 0 < q < 1, got {q}")
        self.q = float(q)
        self._initial: List[float] = []  # first five observations, sorted
        self._n: List[int] = []          # marker positions (1-based)
        self._ns: List[float] = []       # desired positions
        self._heights: List[float] = []
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            self._heights = list(self._initial)
            self._n = [1, 2, 3, 4, 5]
            q = self.q
            self._ns = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]

    def _update(self, value: float) -> None:
        h = self._heights
        n = self._n
        # find the cell and clamp the extremes
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if value < h[i]:
                    k = i - 1
                    break
            else:
                k = 3
        for i in range(k + 1, 5):
            n[i] += 1
        q = self.q
        dn = (q / 2, q, (1 + q) / 2)
        for i in range(1, 4):
            self._ns[i] += dn[i - 1]
        # adjust the three interior markers
        for i in range(1, 4):
            d = self._ns[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1 if d >= 1 else -1
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, sign: int) -> float:
        h, n = self._heights, self._n
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: int) -> float:
        h, n = self._heights, self._n
        return h[i] + sign * (h[i + sign] - h[i]) / (n[i + sign] - n[i])

    @property
    def value(self) -> Optional[float]:
        """The current estimate (exact until five observations)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return None
        ordered = sorted(self._initial)
        idx = min(len(ordered) - 1, int(self.q * len(ordered)))
        return ordered[idx]


class EndpointStats:
    """One endpoint's streaming serving statistics."""

    QUANTILES = (0.50, 0.95, 0.99)

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._sketches = {q: P2Quantile(q) for q in self.QUANTILES}
        self.requests = 0
        self.errors = 0

    def observe(self, latency_s: float, error: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1
            else:
                # errors are typically fast rejections; folding them
                # into the latency sketch would *flatter* the tail
                for sketch in self._sketches.values():
                    sketch.observe(latency_s)

    def quantile(self, q: float) -> Optional[float]:
        with self._lock:
            sketch = self._sketches.get(q)
            return sketch.value if sketch is not None else None

    @property
    def error_rate(self) -> float:
        with self._lock:
            return self.errors / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "endpoint": self.name,
                "requests": self.requests,
                "errors": self.errors,
                "error_rate": self.errors / self.requests if self.requests else 0.0,
                "p50_s": self._sketches[0.50].value,
                "p95_s": self._sketches[0.95].value,
                "p99_s": self._sketches[0.99].value,
            }


@dataclass
class SloPolicy:
    """The service's promises, as numbers.

    ``error_budget`` is the allowed failure fraction over the window;
    burn rate 1.0 means failing at exactly the budgeted rate, >1 means
    the budget is being consumed faster than it regenerates (Google
    SRE-style multi-window burn alarms collapse to the single live
    window this in-process service has).
    """

    p99_latency_s: float = 5.0       #: p99 solve-request latency bound
    max_queue_depth: int = 48        #: queued requests before degraded
    error_budget: float = 0.02       #: allowed failure fraction
    burn_alarm: float = 1.0          #: degrade when burn rate exceeds this
    min_requests: int = 10           #: no verdicts on tiny samples


class SloMonitor:
    """Evaluate :class:`EndpointStats` against an :class:`SloPolicy`.

    ``degraded`` flips on any breached threshold and back off when the
    breach clears (the sketches are streaming, so sustained good
    behaviour pulls the quantiles back down). The service polls
    :meth:`degraded` at admission and sheds load while it's set.
    """

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy if policy is not None else SloPolicy()
        self._endpoints: Dict[str, EndpointStats] = {}
        self._lock = threading.Lock()
        self._queue_depth = 0
        self._t0 = time.monotonic()

    def endpoint(self, name: str) -> EndpointStats:
        with self._lock:
            stats = self._endpoints.get(name)
            if stats is None:
                stats = self._endpoints[name] = EndpointStats(name)
            return stats

    def observe(self, endpoint: str, latency_s: float, error: bool = False) -> None:
        self.endpoint(endpoint).observe(latency_s, error=error)

    def set_queue_depth(self, depth: int) -> None:
        self._queue_depth = int(depth)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def burn_rate(self, endpoint: str) -> float:
        """Error-budget burn: observed failure fraction / budget."""
        stats = self.endpoint(endpoint)
        if self.policy.error_budget <= 0:
            return float("inf") if stats.error_rate > 0 else 0.0
        return stats.error_rate / self.policy.error_budget

    def breaches(self) -> List[str]:
        """Every currently-breached threshold, human-readable."""
        p = self.policy
        out: List[str] = []
        if self._queue_depth > p.max_queue_depth:
            out.append(
                f"queue depth {self._queue_depth} > {p.max_queue_depth}"
            )
        with self._lock:
            endpoints = list(self._endpoints.values())
        for stats in endpoints:
            if stats.requests < p.min_requests:
                continue
            p99 = stats.quantile(0.99)
            if p99 is not None and p99 > p.p99_latency_s:
                out.append(
                    f"{stats.name}: p99 {p99:.3f}s > {p.p99_latency_s}s"
                )
            burn = self.burn_rate(stats.name)
            if burn > p.burn_alarm:
                out.append(
                    f"{stats.name}: error-budget burn {burn:.2f}x "
                    f"> {p.burn_alarm}x"
                )
        return out

    def degraded(self) -> bool:
        return bool(self.breaches())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            endpoints = {name: s.as_dict() for name, s in self._endpoints.items()}
        breaches = self.breaches()
        return {
            "uptime_s": time.monotonic() - self._t0,
            "queue_depth": self._queue_depth,
            "degraded": bool(breaches),
            "breaches": breaches,
            "policy": {
                "p99_latency_s": self.policy.p99_latency_s,
                "max_queue_depth": self.policy.max_queue_depth,
                "error_budget": self.policy.error_budget,
                "burn_alarm": self.policy.burn_alarm,
            },
            "endpoints": endpoints,
        }

    def write(self, path) -> None:
        """Publish the snapshot atomically (the ``status.json`` the
        ``repro status`` dashboard reads)."""
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, json.dumps(self.snapshot(), indent=2) + "\n")


def format_status(snapshot: dict) -> str:
    """Render one monitor snapshot as the terminal dashboard."""

    def fmt_s(v) -> str:
        return f"{v * 1e3:8.1f}ms" if isinstance(v, (int, float)) else "       --"

    state = "DEGRADED" if snapshot.get("degraded") else "ok"
    lines = [
        f"service status: {state}   "
        f"(queue depth {snapshot.get('queue_depth', 0)}, "
        f"up {snapshot.get('uptime_s', 0.0):.0f}s)",
    ]
    for breach in snapshot.get("breaches", []):
        lines.append(f"  BREACH: {breach}")
    endpoints = snapshot.get("endpoints", {})
    if endpoints:
        lines.append(
            f"  {'endpoint':<18} {'requests':>9} {'errors':>7} "
            f"{'burn':>6} {'p50':>10} {'p95':>10} {'p99':>10}"
        )
        budget = snapshot.get("policy", {}).get("error_budget", 0.02) or 1.0
        for name in sorted(endpoints):
            ep = endpoints[name]
            burn = (ep.get("error_rate", 0.0) / budget) if budget else 0.0
            lines.append(
                f"  {name:<18} {ep.get('requests', 0):>9} "
                f"{ep.get('errors', 0):>7} {burn:>5.2f}x "
                f"{fmt_s(ep.get('p50_s'))} {fmt_s(ep.get('p95_s'))} "
                f"{fmt_s(ep.get('p99_s'))}"
            )
    else:
        lines.append("  no endpoint traffic yet")
    return "\n".join(lines)
