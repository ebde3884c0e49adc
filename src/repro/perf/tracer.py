"""Span-based tracing with Chrome trace-event export.

The paper's team diagnosed where time went with per-rank timelines
(Figure 1); this tracer produces the same view for the reproduction:
every scheduler wraps task execution in a span, spans nest, and the
whole recording exports as Chrome trace-event JSON — load the file in
``chrome://tracing`` or https://ui.perfetto.dev and every rank/thread
is a swim-lane of task boxes.

Spans are recorded as ``"X"`` (complete) events — one event carrying
``ts`` and ``dur`` — which is both the most compact encoding and the
easiest to validate: every event has ``name``, ``ph``, ``ts``, ``pid``,
``tid``. Simulated timelines (:mod:`repro.dessim.tracesim`) inject
their events through :meth:`SpanTracer.complete` so measured and
modelled runs share one file format.

Observability v2 additions:

* **Causal stamping** — while a :mod:`repro.perf.tracectx` context is
  active on the recording thread, every span's args carry its
  ``trace_id``/``span_id``, so cross-rank and cross-component spans of
  one causal chain are joinable after the fact.
* **Flow events** — :meth:`flow_start` / :meth:`flow_finish` emit
  Chrome ``ph: "s"`` / ``ph: "f"`` events; when a send's flow-start and
  the matching recv's flow-finish share an ``id``, the trace viewer
  draws the message arrow between ranks
  (:func:`repro.perf.merge.merge_traces` stitches per-rank files).
* **Sinks** — every recorded event is also offered to registered sink
  callables (the flight recorder's ring buffer subscribes here). The
  internal event list is append-atomic under a lock, so concurrent
  worker threads can never tear or lose events.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

from repro.perf import tracectx
from repro.util.errors import PerfError


class SpanTracer:
    """Nested-span recorder with per-thread attribution.

    One tracer covers the whole process: each OS thread gets its own
    span stack and a stable ``tid`` (auto-assigned in first-use order,
    or pinned via :meth:`register_thread` — the distributed scheduler
    pins rank threads to ``tid == rank``). A disabled tracer turns
    every call into a cheap no-op so instrumentation can stay wired in
    permanently.

    ``t0`` (a ``time.perf_counter()`` reading) anchors the timestamp
    origin; tracers sharing one ``t0`` produce directly comparable
    timelines, which is how per-rank trace files stay alignable for
    :func:`~repro.perf.merge.merge_traces`.
    """

    def __init__(
        self, enabled: bool = True, pid: int = 0, t0: Optional[float] = None
    ) -> None:
        self.enabled = bool(enabled)
        self.pid = int(pid)
        self._t0 = time.perf_counter() if t0 is None else float(t0)
        self._events: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        self._next_tid = 0
        self._sinks: List[Callable[[dict], None]] = []
        # what span() returns while disabled: stateless, so one serves all
        self._no_span = nullcontext(self)

    # ------------------------------------------------------------------
    # time & thread bookkeeping
    # ------------------------------------------------------------------
    @property
    def t0(self) -> float:
        return self._t0

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._next_tid
                self._next_tid += 1
                self._tids[ident] = tid
            return tid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def register_thread(self, tid: int, name: Optional[str] = None) -> None:
        """Pin the calling thread to ``tid`` (e.g. its simulated rank)
        and optionally name its timeline row."""
        if not self.enabled:
            return
        ident = threading.get_ident()
        with self._lock:
            self._tids[ident] = int(tid)
            self._next_tid = max(self._next_tid, int(tid) + 1)
        if name is not None:
            self._emit(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": self.pid,
                    "tid": int(tid),
                    "args": {"name": name},
                }
            )

    # ------------------------------------------------------------------
    # the event sink
    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[dict], None]) -> None:
        """Subscribe ``sink(event)`` to every event this tracer records
        (the flight recorder's feed). Sinks must be cheap and
        thread-safe; they run on the recording thread."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def _emit(self, event: dict) -> None:
        # append under the lock — concurrent emitters may interleave in
        # order but can never lose or tear an event — then offer the
        # event to sinks outside it, so a slow sink cannot serialize
        # every recording thread.
        with self._lock:
            self._events.append(event)
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink(event)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "", **args) -> None:
        """Open a span on the calling thread's stack.

        The thread's active :mod:`~repro.perf.tracectx` context (if
        any) is captured here, at entry — the span belongs to the
        causal chain that *started* it even if the context is popped
        before the span closes."""
        if not self.enabled:
            return
        tracectx.stamp(args)
        self._stack().append((name, cat, args, self._now_us()))

    def end(self, name: Optional[str] = None) -> None:
        """Close the innermost open span; ``name`` (if given) must match
        it — a mismatch means begin/end calls crossed, which is a bug at
        the instrumentation site, so it raises."""
        if not self.enabled:
            return
        stack = self._stack()
        if not stack:
            raise PerfError(
                f"SpanTracer.end({name!r}) with no open span on this thread"
            )
        top_name, cat, args, start = stack[-1]
        if name is not None and name != top_name:
            raise PerfError(
                f"mismatched span stop: end({name!r}) but innermost open "
                f"span is {top_name!r}"
            )
        stack.pop()
        now = self._now_us()
        event = {
            "name": top_name,
            "ph": "X",
            "ts": start,
            "dur": now - start,
            "pid": self.pid,
            "tid": self._tid(),
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._emit(event)

    def span(self, name: str, cat: str = "", **args):
        """A span over a ``with`` block, which yields the tracer. A
        disabled tracer returns one shared no-op context, entered without
        a generator frame; exceptions pass through either way."""
        if not self.enabled:
            return self._no_span
        return self._span(name, cat, args)

    @contextmanager
    def _span(self, name: str, cat: str, args: dict):
        self.begin(name, cat, **args)
        try:
            yield self
        finally:
            self.end(name if self.enabled else None)

    def instant(self, name: str, cat: str = "", **args) -> None:
        """A zero-duration marker (Chrome 'instant' event)."""
        if not self.enabled:
            return
        tracectx.stamp(args)
        event = {
            "name": name,
            "ph": "i",
            "ts": self._now_us(),
            "pid": self.pid,
            "tid": self._tid(),
            "s": "t",  # thread-scoped instant
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._emit(event)

    def complete(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        pid: Optional[int] = None,
        tid: int = 0,
        cat: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """Inject a pre-timed complete event (simulated timelines)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "ph": "X",
            "ts": float(ts_us),
            "dur": float(dur_us),
            "pid": self.pid if pid is None else int(pid),
            "tid": int(tid),
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._emit(event)

    # ------------------------------------------------------------------
    # flow events (message arrows across timeline rows)
    # ------------------------------------------------------------------
    def flow_start(
        self, flow_id, name: str = "msg", cat: str = "comm",
        tid: Optional[int] = None, **args
    ) -> None:
        """The producing end of a flow (Chrome ``ph: "s"``); emit inside
        the send span so the arrow leaves the right box."""
        if not self.enabled:
            return
        tracectx.stamp(args)
        event = {
            "name": name,
            "ph": "s",
            "id": str(flow_id),
            "ts": self._now_us(),
            "pid": self.pid,
            "tid": self._tid() if tid is None else int(tid),
            "cat": cat,
        }
        if args:
            event["args"] = args
        self._emit(event)

    def flow_finish(
        self, flow_id, name: str = "msg", cat: str = "comm",
        tid: Optional[int] = None, **args
    ) -> None:
        """The consuming end of a flow (Chrome ``ph: "f"``, binding to
        the enclosing slice); emit where the message is processed."""
        if not self.enabled:
            return
        tracectx.stamp(args)
        event = {
            "name": name,
            "ph": "f",
            "bp": "e",
            "id": str(flow_id),
            "ts": self._now_us(),
            "pid": self.pid,
            "tid": self._tid() if tid is None else int(tid),
            "cat": cat,
        }
        if args:
            event["args"] = args
        self._emit(event)

    # ------------------------------------------------------------------
    # inspection & export
    # ------------------------------------------------------------------
    def open_spans(self) -> int:
        """Open spans on the *calling* thread (0 = balanced)."""
        return len(self._stack())

    def events(self) -> List[dict]:
        """All recorded events, metadata first then by start time."""
        with self._lock:
            events = list(self._events)
        return sorted(events, key=lambda e: (e["ph"] != "M", e["ts"]))

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def to_chrome_trace(self) -> List[dict]:
        """The export payload: a bare JSON array of trace events, which
        chrome://tracing and Perfetto both accept."""
        return self.events()

    def write(self, path) -> None:
        """Export to ``path`` atomically (write-then-rename), so a
        reader — or a crash mid-export — never sees a torn trace."""
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_chrome_trace(), indent=1) + "\n")


# ----------------------------------------------------------------------
# the process-wide default tracer: present but disabled, so permanently
# wired instrumentation costs one attribute check until someone turns
# tracing on (the profile CLI swaps in an enabled tracer).
# ----------------------------------------------------------------------
_global_tracer = SpanTracer(enabled=False)


def get_tracer() -> SpanTracer:
    return _global_tracer


def set_tracer(tracer: SpanTracer) -> SpanTracer:
    """Swap the default tracer; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous
