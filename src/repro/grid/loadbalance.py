"""SFC-based load balancing: assign patches to ranks.

Patches are ordered along a space-filling curve (locality => neighbour
patches land on the same or nearby ranks => less halo traffic), then
the curve is cut into contiguous chunks of near-equal cost. Cost
defaults to cell count, matching Uintah's simple cost model for
uniform-work tasks like RMCRT where work ~ cells * rays.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.patch import Patch
from repro.grid.sfc import hilbert_encode, morton_key
from repro.util.errors import GridError


class LoadBalancer:
    """Assigns patches to ``num_ranks`` ranks along an SFC."""

    def __init__(
        self,
        num_ranks: int,
        curve: str = "morton",
        cost_fn: Optional[Callable[[Patch], float]] = None,
    ) -> None:
        if num_ranks < 1:
            raise GridError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = int(num_ranks)
        self.curve = curve
        self.cost_fn = cost_fn or (lambda p: float(p.num_cells))

    def order_patches(self, patches: Sequence[Patch]) -> List[Patch]:
        """Patches sorted along the curve by patch-centroid index (the
        order :func:`~repro.grid.sfc.curve_order` gives), in plain ints:
        a pass orders a few dozen patches, where NumPy's per-call cost
        outweighs the work."""
        if not patches:
            return []
        pts = [tuple(int(c) for c in p.centroid_index()) for p in patches]
        # curves need non-negative coordinates
        lo = tuple(min(pt[a] for pt in pts) for a in range(3))
        pts = [(x - lo[0], y - lo[1], z - lo[2]) for x, y, z in pts]
        if self.curve == "morton":
            keys = [morton_key(*pt) for pt in pts]
        elif self.curve == "hilbert":
            span = max(max(pt) for pt in pts) + 1
            bits = max(1, (max(2, span) - 1).bit_length())
            keys = [hilbert_encode(pt, bits) for pt in pts]
        else:
            raise ValueError(f"unknown curve {self.curve!r} (use 'morton' or 'hilbert')")
        return [patches[i] for i in sorted(range(len(pts)), key=keys.__getitem__)]

    def assign(self, patches: Sequence[Patch]) -> Dict[int, int]:
        """Map ``patch_id -> rank``.

        Greedy prefix cut: walk the curve accumulating cost, advancing
        to the next rank when the running total passes the ideal
        per-rank share. Guarantees every rank gets at least one patch
        whenever ``len(patches) >= num_ranks``. Plain floats throughout;
        the total is the exactly rounded sum (:func:`math.fsum`).
        """
        ordered = self.order_patches(patches)
        n = len(ordered)
        if n == 0:
            return {}
        costs = [float(self.cost_fn(p)) for p in ordered]
        total = math.fsum(costs)
        if total <= 0:
            raise GridError("total patch cost must be positive")
        assignment: Dict[int, int] = {}
        ranks = self.num_ranks
        rank = 0
        acc = 0.0
        for i, (patch, cost) in enumerate(zip(ordered, costs)):
            # never strand a later rank without patches
            must_advance = n - i == ranks - rank and acc > 0
            target = total * (rank + 1) / ranks
            if rank < ranks - 1 and (must_advance or acc + 0.5 * cost >= target):
                rank += 1
            assignment[patch.patch_id] = rank
            acc += cost
        return assignment

    def rank_costs(self, patches: Sequence[Patch], assignment: Dict[int, int]) -> np.ndarray:
        """Per-rank total cost under an assignment."""
        out = np.zeros(self.num_ranks)
        by_id = {p.patch_id: p for p in patches}
        for pid, rank in assignment.items():
            out[rank] += self.cost_fn(by_id[pid])
        return out

    def imbalance(self, patches: Sequence[Patch], assignment: Dict[int, int]) -> float:
        """max/mean cost ratio (1.0 = perfect balance)."""
        costs = self.rank_costs(patches, assignment)
        mean = costs.mean()
        if mean <= 0:
            return float("inf")
        return float(costs.max() / mean)


def round_robin_assign(patches: Sequence[Patch], num_ranks: int) -> Dict[int, int]:
    """Baseline assignment ignoring locality — used in ablation tests."""
    return {p.patch_id: i % num_ranks for i, p in enumerate(patches)}


# ----------------------------------------------------------------------
# failure recovery
# ----------------------------------------------------------------------
def reassign_on_failure(
    patches: Sequence[Patch],
    assignment: Dict[int, int],
    dead_ranks: Sequence[int],
    curve: str = "morton",
    cost_fn: Optional[Callable[[Patch], float]] = None,
) -> Dict[int, int]:
    """Re-home a dead rank's patches onto the survivors.

    Survivors keep their patches (their warehouses, caches, and halo
    neighbourhoods stay warm); only the *orphaned* patches move. Each
    orphan, visited in SFC order to preserve what locality it had, goes
    to the currently least-loaded surviving rank. Returns a new
    assignment still keyed by the original rank ids — callers that need
    dense rank numbering (to compile a graph for fewer ranks) follow up
    with :func:`compact_ranks`.
    """
    dead = set(int(r) for r in dead_ranks)
    survivors = sorted(set(assignment.values()) - dead)
    if not survivors:
        raise GridError(
            f"all ranks {sorted(set(assignment.values()))} died; nothing to recover onto"
        )
    cost = cost_fn or (lambda p: float(p.num_cells))
    by_id = {p.patch_id: p for p in patches}
    load = {r: 0.0 for r in survivors}
    new_assignment: Dict[int, int] = {}
    orphans: List[Patch] = []
    for pid, rank in assignment.items():
        if rank in dead:
            orphans.append(by_id[pid])
        else:
            new_assignment[pid] = rank
            load[rank] += cost(by_id[pid])
    lb = LoadBalancer(max(survivors) + 1, curve=curve, cost_fn=cost_fn)
    for patch in lb.order_patches(orphans):
        target = min(survivors, key=lambda r: (load[r], r))
        new_assignment[patch.patch_id] = target
        load[target] += cost(patch)
    return new_assignment


def compact_ranks(assignment: Dict[int, int]) -> Tuple[Dict[int, int], int]:
    """Renumber surviving ranks densely as ``0..n-1``.

    Schedulers spawn one worker per rank id, so after a death the
    sparse survivor ids {0, 2, 3} must become {0, 1, 2}. Returns the
    renumbered assignment and the new rank count; relative rank order
    is preserved.
    """
    survivors = sorted(set(assignment.values()))
    remap = {old: new for new, old in enumerate(survivors)}
    return {pid: remap[r] for pid, r in assignment.items()}, len(survivors)
