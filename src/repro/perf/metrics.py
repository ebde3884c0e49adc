"""The runtime metrics registry.

Uintah's RuntimeStats give every component a place to publish what it
did — how many tasks ran, how many messages retired, how much memory
the allocators hold. This module provides that publishing surface for
the whole reproduction: a thread-safe registry of **counters**
(monotone totals), **gauges** (point-in-time levels), and
**histograms** (distributions), each optionally carrying labels so one
metric name can hold several series (``comm.pool.retired{pool=waitfree,
rank=3}``).

Publishers either hold a :class:`MetricsRegistry` explicitly or fall
back to the process-wide default (:func:`get_metrics`); hot paths keep
plain integer counters locally and flush them in one
``publish_metrics`` call, so instrumentation never sits on the inner
loop.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.util.errors import PerfError

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    """Canonical, hashable form: sorted (key, str(value)) pairs."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base series: a (name, labels) pair with a value lock."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self._labels = labels
        self._lock = threading.Lock()

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self._labels)

    def as_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        lbl = ",".join(f"{k}={v}" for k, v in self._labels)
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class Counter(Metric):
    """A monotone total (rays traced, messages retired, slot scans)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise PerfError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self.value}


class Gauge(Metric):
    """A level that moves both ways (footprint, outstanding buffers)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self.value}


#: default histogram bucket upper bounds: ~exponential, unit-agnostic
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4,
)


class Histogram(Metric):
    """A distribution with cumulative buckets plus min/max/sum/count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise PerfError(f"histogram {self.name!r} needs >= 1 bucket bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile by linear interpolation within
        the bucket holding the target rank (the Prometheus
        ``histogram_quantile`` scheme).

        Resolution is bucket-bounded by construction; the estimate is
        clamped to the observed ``[min, max]`` so sparse tails cannot
        report values outside the data. None when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise PerfError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            if not self.count:
                return None
            target = q * self.count
            cumulative = 0
            lo = 0.0
            for bound, in_bucket in zip(self.bounds, self.bucket_counts):
                if cumulative + in_bucket >= target and in_bucket:
                    frac = (target - cumulative) / in_bucket
                    value = lo + frac * (bound - lo)
                    return min(max(value, self.min), self.max)
                cumulative += in_bucket
                lo = bound
            # target lies in the overflow bucket: best upper estimate
            # is the observed maximum
            return self.max

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [
                {"le": b, "count": c}
                for b, c in zip(self.bounds, self.bucket_counts)
            ]
            + [{"le": None, "count": self.bucket_counts[-1]}],
        }


class MetricsRegistry:
    """All live metric series, keyed by (name, labels).

    ``registry.counter("x", pool="waitfree")`` returns (creating on
    first use) the counter series with exactly those labels; the same
    name with different labels is a distinct series, and reusing a name
    with a different metric *kind* is an error — label sets partition a
    name, kinds may not.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelItems], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Mapping[str, object], **kw):
        key = (name, _label_items(labels))
        metric = self._series.get(key)  # a hit needs no lock: one atomic dict read
        if metric is not None and type(metric) is cls:
            return metric
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise PerfError(
                        f"metric {name!r} already registered as a {kind}, "
                        f"cannot re-register as a {cls.kind}"
                    )
                metric = cls(name, key[1], **kw)
                self._series[key] = metric
                self._kinds[name] = cls.kind
            elif not isinstance(metric, cls):
                raise PerfError(
                    f"metric {name!r} already registered as a "
                    f"{metric.kind}, cannot re-register as a {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        kw = {} if buckets is None else {"buckets": buckets}
        return self._get_or_create(Histogram, name, labels, **kw)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __iter__(self):
        with self._lock:
            return iter(list(self._series.values()))

    def series(self, name: str) -> List[Metric]:
        """All label-variants of one metric name."""
        with self._lock:
            return [m for (n, _), m in self._series.items() if n == name]

    def value(self, name: str, **labels) -> float:
        """The value of one counter/gauge series (0 if absent)."""
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._series.get(key)
        if metric is None:
            return 0.0
        return getattr(metric, "value", 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge name's value across all label sets."""
        return sum(getattr(m, "value", 0.0) for m in self.series(name))

    def reset(self) -> None:
        """Drop every series and kind registration.

        Long-lived service processes (and repeated in-process tests)
        call this between workloads so one run's series never bleed
        into the next snapshot; publishers recreate their series on
        first use afterwards.
        """
        with self._lock:
            self._series.clear()
            self._kinds.clear()

    #: alias — ``clear`` matches the container idiom used elsewhere
    #: (SpanTracer.clear, dict.clear)
    clear = reset

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        out: Dict[str, List[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for metric in self:
            out[metric.kind + "s"].append(metric.as_dict())
        for group in out.values():
            group.sort(key=lambda d: (d["name"], sorted(d["labels"].items())))
        return out

    def write(self, path) -> None:
        """Dump all series as a ``metrics.json`` document, atomically
        (write-then-rename), so concurrent readers never see a torn
        snapshot."""
        from repro.util.atomic import atomic_write_text

        atomic_write_text(
            path, json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        )


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------
_global_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry (publishers' fallback)."""
    return _global_metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _global_metrics
    previous = _global_metrics
    _global_metrics = registry
    return previous


@contextlib.contextmanager
def timed(registry: Optional[MetricsRegistry], name: str, **labels):
    """Time a block into ``<name>.seconds``.

    Observes the wall-clock duration in a histogram and mirrors the
    last duration in a gauge (``<name>.last_seconds``) so dashboards
    can show both the distribution and the most recent cost. A ``None``
    registry falls back to the process default, so call sites never
    need their own guard.
    """
    reg = registry if registry is not None else get_metrics()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        reg.histogram(f"{name}.seconds", **labels).observe(elapsed)
        reg.gauge(f"{name}.last_seconds", **labels).set(elapsed)
