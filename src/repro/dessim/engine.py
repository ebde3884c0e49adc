"""Discrete-event machinery for the cluster simulator.

Two layers:

* :class:`EventSimulator` — a classic heapq event loop (schedule
  callbacks at absolute times), used where genuinely reactive behaviour
  matters and by tests of the engine itself.
* :class:`SlotResource` — non-preemptive list scheduling over ``k``
  identical slots. Because every activity in the RMCRT pipeline is
  run-to-completion with known durations (copies, kernels), resource
  timelines can be computed by greedy slot assignment without
  callbacks; this is what the node-pipeline simulation uses, and it is
  provably equivalent to the event-driven execution for FIFO work.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.util.errors import ReproError


class EventSimulator:
    """Minimal discrete-event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise ReproError(f"cannot schedule into the past (delay {delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap (optionally stopping at ``until``);
        returns the final clock."""
        while self._heap:
            t, _, cb = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = t
            self.events_processed += 1
            cb()
        return self.now


class SlotResource:
    """``k`` identical FIFO servers (copy engines, SMX waves, links)."""

    def __init__(self, slots: int, name: str = "") -> None:
        if slots < 1:
            raise ReproError("resource needs >= 1 slot")
        self.name = name
        self._free_at = [0.0] * slots  # heapified
        heapq.heapify(self._free_at)
        self.busy_time = 0.0
        self.jobs = 0

    def request(self, ready: float, duration: float) -> Tuple[float, float]:
        """Serve a job that becomes ready at ``ready`` for ``duration``;
        returns (start, end)."""
        if duration < 0:
            raise ReproError("negative duration")
        slot_free = heapq.heappop(self._free_at)
        start = max(ready, slot_free)
        end = start + duration
        heapq.heappush(self._free_at, end)
        self.busy_time += duration
        self.jobs += 1
        return start, end

    @property
    def makespan(self) -> float:
        return max(self._free_at)

    def utilization(self, horizon: Optional[float] = None) -> float:
        h = horizon if horizon is not None else self.makespan
        if h <= 0:
            return 0.0
        return self.busy_time / (h * len(self._free_at))
