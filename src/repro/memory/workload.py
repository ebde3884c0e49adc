"""The RMCRT allocation workload and allocator stacks.

Section IV.B diagnosed the heap growth with exactly this mixture:
*persistent small* allocations (metadata that lives for the whole run)
interleaved with *transient large* ones (MPI message buffers and grid
variables created and destroyed every timestep). This module generates
that trace and replays it through three allocator stacks:

* ``glibc``   — everything on one first-fit heap (the before-picture),
* ``tcmalloc``— size-class heap (better, "but the mixture ... still
  resulted in unacceptable fragmentation"),
* ``custom``  — the paper's design: large -> mmap arena, small
  transient -> lock-free pool, small persistent -> heap.

The replay reports footprint growth across timesteps and the final
fragmentation factor, the E6 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.memory.arena import ArenaAllocator
from repro.memory.heap import SimulatedHeap, SizeClassHeap
from repro.memory.pool import SizeClassPool
from repro.util.errors import AllocationError

#: object categories: (small?, persistent?)
CATEGORIES = {
    "mpi_buffer": dict(small=False, persistent=False),     # transient large
    "grid_variable": dict(small=False, persistent=False),  # per-timestep large
    "comm_record": dict(small=True, persistent=False),     # transient small
    "metadata": dict(small=True, persistent=True),         # persistent small
}


@dataclass
class TraceEvent:
    op: str          # "alloc" | "free"
    obj_id: int
    tag: str = ""
    size: int = 0


def generate_trace(
    timesteps: int = 20,
    large_per_step: int = 24,
    small_transient_per_step: int = 200,
    persistent_per_step: int = 12,
    large_size_range: Tuple[int, int] = (256 * 1024, 4 * 1024 * 1024),
    small_size_range: Tuple[int, int] = (32, 512),
    overlap: bool = True,
    seed: int = 0,
) -> List[TraceEvent]:
    """The fragmentation recipe as a flat event list.

    Each timestep allocates large transients (MPI buffers, grid
    variables), a flurry of small transients (comm records), and a few
    *persistent* small allocations (never freed). With ``overlap``
    (the realistic mode) step t's transients are released interleaved
    with step t+1's allocations — asynchronous MPI buffers drain while
    the next timestep is already allocating — which is what ratchets a
    first-fit heap upward: new large blocks cannot reuse holes that are
    not yet free, and the persistent allocations pin the heap top.
    """
    rng = np.random.default_rng(seed)
    events: List[TraceEvent] = []
    next_id = 0
    pending_frees: List[TraceEvent] = []
    for _ in range(timesteps):
        allocs: List[TraceEvent] = []
        step_transients: List[int] = []
        # message volume varies step to step (AMR regridding, radiation
        # vs CFD-only timesteps): the size diversity is what defeats
        # hole reuse in a first-fit heap
        step_scale = float(rng.uniform(0.5, 2.0))
        for _ in range(large_per_step):
            tag = "mpi_buffer" if rng.random() < 0.5 else "grid_variable"
            size = int(step_scale * rng.integers(*large_size_range))
            allocs.append(TraceEvent("alloc", next_id, tag, size))
            step_transients.append(next_id)
            next_id += 1
        for _ in range(small_transient_per_step):
            size = int(rng.integers(*small_size_range))
            allocs.append(TraceEvent("alloc", next_id, "comm_record", size))
            step_transients.append(next_id)
            next_id += 1
        for _ in range(persistent_per_step):
            size = int(rng.integers(*small_size_range))
            allocs.append(TraceEvent("alloc", next_id, "metadata", size))
            next_id += 1
        rng.shuffle(allocs)
        frees = [TraceEvent("free", oid) for oid in step_transients]
        rng.shuffle(frees)
        if overlap:
            # previous step's frees interleave with this step's allocs
            merged = allocs + pending_frees
            rng.shuffle(merged)
            events.extend(merged)
            pending_frees = frees
        else:
            events.extend(allocs)
            events.extend(frees)
    events.extend(pending_frees)
    return events


class AllocatorStack:
    """Routes allocations to sub-allocators by category."""

    def __init__(self, kind: str) -> None:
        if kind == "glibc":
            self.heap = SimulatedHeap(policy="first_fit")
            self.arena = None
            self.pool = None
        elif kind == "tcmalloc":
            self.heap = SizeClassHeap()
            self.arena = None
            self.pool = None
        elif kind == "custom":
            self.heap = SimulatedHeap(policy="first_fit")
            self.arena = ArenaAllocator()
            self.pool = SizeClassPool(arena=ArenaAllocator())
        else:
            raise AllocationError(f"unknown allocator stack {kind!r}")
        self.kind = kind
        self._route: Dict[int, object] = {}

    def _allocator_for(self, tag: str) -> object:
        cat = CATEGORIES[tag]
        if self.kind != "custom":
            return self.heap
        if not cat["small"]:
            return self.arena       # large -> mmap
        if not cat["persistent"]:
            return self.pool        # small transient -> lock-free pool
        return self.heap            # infrequent persistent small -> heap

    def malloc(self, tag: str, size: int, obj_id: int) -> None:
        alloc = self._allocator_for(tag)
        addr = alloc.malloc(size)
        self._route[obj_id] = (alloc, addr, size)

    def free(self, obj_id: int) -> None:
        alloc, addr, _size = self._route.pop(obj_id)
        alloc.free(addr)

    def free_size(self, obj_id: int) -> int:
        """Free and return the requested size (replay bookkeeping)."""
        alloc, addr, size = self._route.pop(obj_id)
        alloc.free(addr)
        return size

    @property
    def footprint(self) -> int:
        total = self.heap.footprint
        if self.arena is not None:
            total += self.arena.footprint
        if self.pool is not None:
            total += self.pool.footprint
        return total

    @property
    def live_bytes(self) -> int:
        total = self.heap.live_bytes
        if self.arena is not None:
            total += self.arena.live_bytes
        if self.pool is not None:
            # pool live tracked in objects; footprint bound is what matters
            total += self.pool.footprint - 0
        return total


@dataclass
class ReplayResult:
    kind: str
    footprint_series: List[int]       #: sampled every ``record_every`` events
    live_series: List[int]            #: live application bytes at each sample
    final_footprint: int
    peak_footprint: int
    peak_live_bytes: int
    persistent_live_bytes: int

    @property
    def fragmentation_series(self) -> List[float]:
        """footprint/live at each sample — the leak-like creep signal."""
        return [
            f / l if l else 1.0
            for f, l in zip(self.footprint_series, self.live_series)
        ]

    @property
    def fragmentation_factor(self) -> float:
        """Peak footprint / peak live bytes (1.0 = no waste)."""
        return (
            self.peak_footprint / self.peak_live_bytes
            if self.peak_live_bytes
            else float("inf")
        )


def replay_trace(kind: str, events: List[TraceEvent], record_every: int = 200) -> ReplayResult:
    stack = AllocatorStack(kind)
    series: List[int] = []
    live_series: List[int] = []
    persistent_bytes = 0
    peak_fp = 0
    live = 0
    peak_live = 0
    for n, ev in enumerate(events):
        if ev.op == "alloc":
            stack.malloc(ev.tag, ev.size, ev.obj_id)
            live += ev.size
            peak_live = max(peak_live, live)
            if CATEGORIES[ev.tag]["persistent"]:
                persistent_bytes += ev.size
        else:
            live -= stack.free_size(ev.obj_id)
        fp = stack.footprint
        peak_fp = max(peak_fp, fp)
        if n % record_every == 0:
            series.append(fp)
            live_series.append(live)
    return ReplayResult(
        kind=kind,
        footprint_series=series,
        live_series=live_series,
        final_footprint=stack.footprint,
        peak_footprint=peak_fp,
        peak_live_bytes=peak_live,
        persistent_live_bytes=persistent_bytes,
    )
