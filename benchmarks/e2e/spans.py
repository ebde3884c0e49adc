"""In-memory spans recorded from outside the program.

The benchmark may not edit ``src/``, so every layer is traced by
rebinding the public name through which its caller reaches it (for a
``from x import f`` that is the *importing* module's ``f``), only inside
the benchmark's child process and only while a traced op runs.

A span is ``(id, name, layer, start, end, parent, op, thread)``. Parents
come from a per-thread stack; a span that starts on a thread with an
empty stack (a scheduler rank thread) adopts the span registered with
:meth:`Recorder.adopting`, so the rank threads hang under ``execute``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    thread: int
    counts: Optional[Dict[str, float]] = None


class Recorder:
    """Span sink shared by every wrapper of one child process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._adopter: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, counts: Optional[Dict[str, float]] = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        with self._lock:
            span = Span(
                len(self.spans), name, layer, 0.0, 0.0, parent, self.op,
                threading.get_ident(), counts,
            )
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def adopting(self, span: Span):
        """Root spans of other threads become children of ``span``."""
        previous, self._adopter = self._adopter, span.id
        try:
            yield
        finally:
            self._adopter = previous

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the part of the span's own
    interval that its children cover. Children on parallel threads may
    overlap, so covered time is the union of their intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


# ----------------------------------------------------------------------
# rebinding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public name to rebind: ``owner`` is ``module`` or
    ``module:Class``; ``counts(args, kwargs)`` reads work counts off the
    call's arguments and ``result_counts(result)`` off its return value;
    ``adopts`` marks the span rank threads hang under. With
    ``task_callbacks`` the name is a ``Task`` constructor, and the span
    goes around each constructed task's callback instead."""

    owner: str
    attr: str
    span: str
    layer: str
    counts: Optional[Callable[[tuple, dict], Dict[str, float]]] = None
    result_counts: Optional[Callable[[object], Dict[str, float]]] = None
    adopts: bool = False
    static: bool = False
    task_callbacks: bool = False


def _march_counts(args, kwargs):
    batch = kwargs["batch"] if "batch" in kwargs else args[1]
    if kwargs.get("from_handoff", False):
        return {"handoff_calls": 1, "rays_launched": int(batch.parked().size)}
    return {"march_calls": 1, "rays_launched": batch.n, "rays_fresh": batch.n}


def _graph_counts(graph):
    return {"tasks": len(graph.detailed_tasks), "messages": len(graph.messages)}


KERNEL_TARGETS = (
    Target("repro.core.kernels", "march", "dda.march", "core.dda", _march_counts),
    Target("repro.core.kernels", "generate_patch_rays", "rays.generate", "core.rays"),
    Target("repro.core.fields:LevelFields", "from_properties", "fields.build",
           "core.fields", static=True),
)
SINGLE_LEVEL_TARGETS = KERNEL_TARGETS + (
    Target("repro.core.single_level", "trace_patch_single_level", "kernels.trace",
           "core.kernels"),
)
MULTI_LEVEL_TARGETS = KERNEL_TARGETS + (
    Target("repro.core.multi_level", "trace_patch_multi_level", "kernels.trace",
           "core.kernels"),
    Target("repro.core.multi_level", "project_to_coarser_levels", "fields.project",
           "core.multi_level"),
)
DISTRIBUTED_TARGETS = KERNEL_TARGETS[:2] + (
    Target("repro.core.distributed", "trace_patch_multi_level", "kernels.trace",
           "core.kernels"),
    Target("repro.runtime.taskgraph:TaskGraph", "compile", "taskgraph.compile",
           "runtime.taskgraph", result_counts=_graph_counts),
    Target("repro.core.distributed", "Task", "distributed.task", "core.distributed",
           task_callbacks=True),
    Target("repro.runtime.scheduler:DistributedScheduler", "execute",
           "scheduler.execute", "runtime.scheduler", adopts=True),
    Target("repro.core.distributed", "gather_cc", "dw.gather", "dw"),
)
UPS_TARGETS = (
    Target("repro.service.service", "parse_ups", "ups.parse", "ups"),
    Target("repro.service.workers", "prepare_scene", "ups.prepare", "ups"),
    Target("repro.ups", "prepare_scene", "ups.prepare", "ups"),
    Target("repro.service.schema", "spec_fingerprint", "ups.fingerprint", "ups"),
)


class Tracing:
    """Installs and removes the wrappers for one workload's targets."""

    def __init__(self, recorder: Recorder, targets: Iterable[Target]) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self._saved: List[Tuple[object, str, object]] = []
        self._hit = set()

    def _wrap(self, target: Target, fn):
        recorder, hit = self.recorder, self._hit

        if target.task_callbacks:
            def make_task(name, callback, *args, **kwargs):
                def traced_callback(ctx):
                    hit.add(target)
                    with recorder.span(f"{target.span}:{name}", target.layer):
                        return callback(ctx)

                return fn(name, traced_callback, *args, **kwargs)

            return make_task

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit.add(target)
            counts = target.counts(args, kwargs) if target.counts else None
            with recorder.span(target.span, target.layer, counts) as span:
                with recorder.adopting(span) if target.adopts else nullcontext():
                    result = fn(*args, **kwargs)
                if target.result_counts:
                    span.counts = target.result_counts(result)
                return result

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            module_name, _, cls = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[target.attr]
            fn = original.__func__ if target.static else original
            wrapped = self._wrap(target, fn)
            setattr(owner, target.attr, staticmethod(wrapped) if target.static else wrapped)
            self._saved.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def unhit(self) -> List[str]:
        """Rebound names that were never called — a rename in ``src/``
        that silently un-traced a layer shows up here."""
        return sorted(
            f"{t.owner}.{t.attr}" for t in self.targets if t not in self._hit
        )
