"""The RMCRT communication/computation cost model (paper ref [5]).

Quantifies, for a 2-level benchmark problem on R GPUs/nodes:

* **message counts and volumes** — fine-level halo exchanges (6 faces
  per patch, an off-node fraction set by SFC locality) plus the coarse
  radiation level, which every node must receive nearly in full
  (patch-granular sends from each coarse patch's owner: this is the
  communication the data-onion design reduced from the single-level
  O(N_total^2) replication),
* **local communication time** — the per-rank cost of posting/testing/
  processing those messages through a request pool, with the locked
  pool paying serialization plus an O(outstanding^2) re-scan penalty
  (Testsome over a vector under one lock) and the wait-free pool
  scaling across threads: the Table I mechanism, with per-message
  constants calibratable from the measured thread benchmark (E1b),
* **ray-march work** — expected DDA steps per ray: a fine-level chord
  across the patch ROI plus a coarse-level chord across the domain,
  attenuation-shortened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import ReproError

BYTES_PER_VAR = 8
NUM_PROPERTY_VARS = 3  # abskg, sigma_t4, cell_type


@dataclass(frozen=True)
class RMCRTProblem:
    """A 2-level Burns & Christon benchmark configuration."""

    fine_cells: int
    refinement_ratio: int = 4
    rays_per_cell: int = 100
    halo: int = 4
    #: coarse radiation level decomposition (per dimension); the coarse
    #: mesh is small, so Uintah tiles it with few large patches and the
    #: runtime batches all of a rank-pair's dependencies into one MPI
    #: message — each rank receives the coarse level as O(tens) of
    #: batched messages, not thousands
    coarse_patches_per_dim: int = 4

    def __post_init__(self) -> None:
        if self.fine_cells % self.refinement_ratio:
            raise ReproError("refinement ratio must divide fine_cells")

    @property
    def coarse_cells(self) -> int:
        return self.fine_cells // self.refinement_ratio

    @property
    def total_cells(self) -> int:
        return self.fine_cells ** 3 + self.coarse_cells ** 3

    def num_patches(self, patch_size: int) -> int:
        if self.fine_cells % patch_size:
            raise ReproError(
                f"patch size {patch_size} does not divide fine mesh {self.fine_cells}"
            )
        return (self.fine_cells // patch_size) ** 3

    def cells_per_patch(self, patch_size: int) -> int:
        return patch_size ** 3

    @property
    def num_coarse_patches(self) -> int:
        return self.coarse_patches_per_dim ** 3

    @property
    def coarse_level_bytes(self) -> int:
        return self.coarse_cells ** 3 * NUM_PROPERTY_VARS * BYTES_PER_VAR

    @property
    def fine_level_bytes(self) -> int:
        return self.fine_cells ** 3 * NUM_PROPERTY_VARS * BYTES_PER_VAR

    def patch_roi_bytes(self, patch_size: int) -> int:
        """Fine data a patch task holds: patch + halo ring, 3 vars."""
        side = patch_size + 2 * self.halo
        return side ** 3 * NUM_PROPERTY_VARS * BYTES_PER_VAR

    def patch_divq_bytes(self, patch_size: int) -> int:
        return patch_size ** 3 * BYTES_PER_VAR


#: Figure 2's problem: 256^3 fine + 64^3 coarse = 17.04M cells
MEDIUM = RMCRTProblem(fine_cells=256)
#: Figure 3's / Table I's problem: 512^3 + 128^3 = 136.31M cells
LARGE = RMCRTProblem(fine_cells=512)


# ----------------------------------------------------------------------
# communication structure
# ----------------------------------------------------------------------
@dataclass
class CommStats:
    halo_messages: int
    halo_bytes: int
    coarse_messages: int
    coarse_bytes: int

    @property
    def total_messages(self) -> int:
        return self.halo_messages + self.coarse_messages

    @property
    def total_bytes(self) -> int:
        return self.halo_bytes + self.coarse_bytes


def multi_level_comm_per_rank(
    problem: RMCRTProblem,
    patch_size: int,
    num_ranks: int,
    offnode_halo_fraction: float = 0.5,
) -> CommStats:
    """Per-rank communication for one radiation timestep, 2-level.

    Message counts include both the receives and the matching posted
    sends a rank processes (the Figure 1 "local communication" counts
    posting by individual threads): 2 per off-node halo face. The
    coarse level arrives as per-source-rank batched messages — at most
    one per coarse patch owner.
    """
    if num_ranks < 1:
        raise ReproError("num_ranks must be >= 1")
    patches = problem.num_patches(patch_size)
    ppr = math.ceil(patches / min(num_ranks, patches))
    face_bytes = patch_size ** 2 * problem.halo * NUM_PROPERTY_VARS * BYTES_PER_VAR
    halo_msgs = round(2 * ppr * 6 * offnode_halo_fraction)
    halo_bytes = (halo_msgs // 2) * face_bytes

    cp = problem.num_coarse_patches
    remote_frac = (num_ranks - 1) / num_ranks
    coarse_msgs = round(min(cp, num_ranks - 1) * remote_frac) if num_ranks > 1 else 0
    coarse_bytes = round(problem.coarse_level_bytes * remote_frac)
    return CommStats(halo_msgs, halo_bytes, coarse_msgs, coarse_bytes)


def single_level_comm_per_rank(
    problem: RMCRTProblem, patch_size: int, num_ranks: int
) -> CommStats:
    """The pre-AMR scheme: every rank receives the whole fine domain.

    Aggregate traffic is R x V_fine — the O(N_total^2)-type blowup (as
    ranks scale with problem size) that made single-level RMCRT
    intractable beyond 256^3 (paper Section III.C).
    """
    patches = problem.num_patches(patch_size)
    remote_frac = (num_ranks - 1) / num_ranks
    msgs = round(patches * remote_frac)
    vol = round(problem.fine_level_bytes * remote_frac)
    return CommStats(halo_messages=0, halo_bytes=0, coarse_messages=msgs, coarse_bytes=vol)


# ----------------------------------------------------------------------
# local communication (request-pool) time — the Table I mechanism
# ----------------------------------------------------------------------
@dataclass
class PoolTimingModel:
    """Per-message local-communication costs for the two pool designs.

    Each processed message pays an MPI cost (post + match + buffer
    copy, ``t_mpi_per_msg``) that neither design avoids, plus a
    bookkeeping cost: with the wait-free pool the bookkeeping is a
    single uncontended slot claim (``t_book_waitfree``); under the
    locked vector all ``threads`` threads serialize on the mutex, so
    the effective bookkeeping cost inflates by roughly
    ``contention_efficiency * threads`` — which is why the paper's
    speedups sit in the 2-4.5x band rather than at 16x (most of the
    per-message cost is MPI work the pool redesign cannot remove).
    On top sits a fixed per-timestep scan floor (the repeated
    Testsome/find_any passes while messages are still in flight).

    The default constants put the LARGE-problem, 262k-patch Table I
    configuration in the paper's measured range; the E1b thread
    microbenchmark re-derives the bookkeeping ratio on the host machine.
    """

    t_mpi_per_msg: float = 0.25e-3
    t_book_waitfree: float = 0.15e-3
    contention_efficiency: float = 0.7
    t_scan_floor_locked: float = 0.22
    t_scan_floor_waitfree: float = 0.125

    def t_book_locked(self, threads: int) -> float:
        return self.t_book_waitfree * max(1.0, self.contention_efficiency * threads)

    def local_comm_time(self, num_messages: int, pool: str, threads: int = 16) -> float:
        if num_messages < 0 or threads < 1:
            raise ReproError("bad local-comm parameters")
        n = num_messages
        if pool == "waitfree":
            return n * (self.t_mpi_per_msg + self.t_book_waitfree) + self.t_scan_floor_waitfree
        if pool == "locked":
            return (
                n * (self.t_mpi_per_msg + self.t_book_locked(threads))
                + self.t_scan_floor_locked
            )
        raise ReproError(f"unknown pool {pool!r}")


# ----------------------------------------------------------------------
# ray-march work
# ----------------------------------------------------------------------
@dataclass
class RayWorkModel:
    """Expected DDA cell-steps per ray for the 2-level algorithm.

    ``roi_mode='fixed'`` (default, matching the production Uintah
    configuration with a fixed physical ROI extent): every ray marches
    the same fine-level distance regardless of patch size, so patch
    size affects only occupancy and per-patch overheads — the regime in
    which "larger patches provide more work per GPU" wins outright.
    ``roi_mode='patch_based'`` ties the fine march to patch + 2*halo
    (the ROI our executable kernels use), making small patches do less
    fine-level work per ray.
    """

    #: mean chord factor: E[cells crossed] ~ chord_factor * region side
    chord_factor: float = 1.4
    #: attenuation shortens the coarse march (rays die before crossing)
    coarse_survival: float = 0.6
    roi_mode: str = "fixed"
    fixed_roi_cells: int = 48

    def steps_per_ray(self, problem: RMCRTProblem, patch_size: int) -> float:
        if self.roi_mode == "fixed":
            roi_side = min(problem.fine_cells, self.fixed_roi_cells)
        elif self.roi_mode == "patch_based":
            roi_side = min(problem.fine_cells, patch_size + 2 * problem.halo)
        else:
            raise ReproError(f"unknown roi_mode {self.roi_mode!r}")
        fine_steps = self.chord_factor * roi_side
        coarse_steps = (
            self.chord_factor * problem.coarse_cells * self.coarse_survival
        )
        return fine_steps + coarse_steps
