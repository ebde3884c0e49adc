"""Integer index boxes — the region algebra under all AMR machinery.

A :class:`Box` is a half-open axis-aligned region of cell indices
``[lo, hi)`` in 3-D index space, mirroring Uintah's
``Patch::getCellLowIndex/getCellHighIndex`` convention. All patch,
ghost-region, and coarse/fine arithmetic in :mod:`repro.grid` reduces
to operations on boxes.

Boxes are immutable and hashable so they can key dependency maps in the
task graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.util.errors import GridError

IntVec = Tuple[int, int, int]


def ivec(value: Sequence[int]) -> IntVec:
    """Coerce a length-3 sequence to an integer tuple."""
    if (
        type(value) is tuple
        and len(value) == 3
        and type(value[0]) is int
        and type(value[1]) is int
        and type(value[2]) is int
    ):
        return value  # already one: a box's own corner, usually
    t = tuple(int(v) for v in value)
    if len(t) != 3:
        raise GridError(f"expected a length-3 index vector, got {value!r}")
    return t  # type: ignore[return-value]


def ivec_add(a: IntVec, b: IntVec) -> IntVec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def ivec_sub(a: IntVec, b: IntVec) -> IntVec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def ivec_mul(a: IntVec, b: IntVec) -> IntVec:
    return (a[0] * b[0], a[1] * b[1], a[2] * b[2])


def ivec_min(a: IntVec, b: IntVec) -> IntVec:
    return (min(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2]))


def ivec_max(a: IntVec, b: IntVec) -> IntVec:
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def floor_div(a: IntVec, b: IntVec) -> IntVec:
    """Component-wise floor division (correct for negative indices)."""
    return (a[0] // b[0], a[1] // b[1], a[2] // b[2])


def ceil_div(a: IntVec, b: IntVec) -> IntVec:
    """Component-wise ceiling division (correct for negative indices)."""
    return (-((-a[0]) // b[0]), -((-a[1]) // b[1]), -((-a[2]) // b[2]))


def _box(lo: IntVec, hi: IntVec) -> "Box":
    """Trusted constructor: ``lo`` and ``hi`` are already integer
    3-tuples (arithmetic on validated boxes), so the coercion in
    ``Box.__post_init__`` is skipped. The result equals, and hashes as,
    ``Box(lo, hi)``."""
    box = object.__new__(Box)
    object.__setattr__(box, "lo", lo)
    object.__setattr__(box, "hi", hi)
    return box


@dataclass(frozen=True)
class Box:
    """Half-open integer region ``[lo, hi)``.

    ``hi[d] <= lo[d]`` in any dimension denotes the empty box; all empty
    boxes compare unequal unless their bounds match, so use
    :attr:`empty` rather than equality to test emptiness.
    """

    lo: IntVec
    hi: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", ivec(self.lo))
        object.__setattr__(self, "hi", ivec(self.hi))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_extent(lo: Sequence[int], extent: Sequence[int]) -> "Box":
        lo_v = ivec(lo)
        return _box(lo_v, ivec_add(lo_v, ivec(extent)))

    @staticmethod
    def cube(n: int, lo: Sequence[int] = (0, 0, 0)) -> "Box":
        """An ``n**3`` box anchored at ``lo``."""
        return Box.from_extent(lo, (n, n, n))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def extent(self) -> IntVec:
        return (
            max(0, self.hi[0] - self.lo[0]),
            max(0, self.hi[1] - self.lo[1]),
            max(0, self.hi[2] - self.lo[2]),
        )

    @property
    def shape(self) -> IntVec:
        """Alias for :attr:`extent`, matching numpy vocabulary."""
        return self.extent

    @property
    def volume(self) -> int:
        (a0, a1, a2), (b0, b1, b2) = self.lo, self.hi
        if b0 <= a0 or b1 <= a1 or b2 <= a2:
            return 0
        return (b0 - a0) * (b1 - a1) * (b2 - a2)

    @property
    def empty(self) -> bool:
        lo, hi = self.lo, self.hi
        return hi[0] <= lo[0] or hi[1] <= lo[1] or hi[2] <= lo[2]

    def contains_point(self, p: Sequence[int]) -> bool:
        q = ivec(p)
        return all(self.lo[d] <= q[d] < self.hi[d] for d in range(3))

    def contains_box(self, other: "Box") -> bool:
        if other.empty:
            return True
        (a0, a1, a2), (b0, b1, b2) = self.lo, self.hi
        (c0, c1, c2), (d0, d1, d2) = other.lo, other.hi
        return (
            a0 <= c0 and d0 <= b0
            and a1 <= c1 and d1 <= b1
            and a2 <= c2 and d2 <= b2
        )

    def intersects(self, other: "Box") -> bool:
        """True when the two boxes share a cell (so neither is empty)."""
        (a0, a1, a2), (b0, b1, b2) = self.lo, self.hi
        (c0, c1, c2), (d0, d1, d2) = other.lo, other.hi
        return (
            a0 < d0 and c0 < b0 and a0 < b0 and c0 < d0
            and a1 < d1 and c1 < b1 and a1 < b1 and c1 < d1
            and a2 < d2 and c2 < b2 and a2 < b2 and c2 < d2
        )

    # ------------------------------------------------------------------
    # region algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Box") -> "Box":
        # max of the lows, min of the highs, spelled out: this is the
        # innermost call of every ghost gather and graph compile
        (a0, a1, a2), (b0, b1, b2) = self.lo, self.hi
        (c0, c1, c2), (d0, d1, d2) = other.lo, other.hi
        return _box(
            (a0 if a0 > c0 else c0, a1 if a1 > c1 else c1, a2 if a2 > c2 else c2),
            (b0 if b0 < d0 else d0, b1 if b1 < d1 else d1, b2 if b2 < d2 else d2),
        )

    def bounding_union(self, other: "Box") -> "Box":
        if self.empty:
            return other
        if other.empty:
            return self
        return _box(ivec_min(self.lo, other.lo), ivec_max(self.hi, other.hi))

    def subtract(self, other: "Box") -> List["Box"]:
        """``self \\ other`` as a list of disjoint boxes.

        Uses the standard axis-sweep split: at most 6 pieces, all
        disjoint, whose union is exactly the difference.
        """
        inter = self.intersect(other)
        if inter.empty:
            return [] if self.empty else [self]
        pieces: List[Box] = []
        lo, hi = list(self.lo), list(self.hi)
        for d in range(3):
            if lo[d] < inter.lo[d]:
                piece_hi = hi.copy()
                piece_hi[d] = inter.lo[d]
                pieces.append(_box(tuple(lo), tuple(piece_hi)))
                lo = lo.copy()
                lo[d] = inter.lo[d]
            if inter.hi[d] < hi[d]:
                piece_lo = lo.copy()
                piece_lo[d] = inter.hi[d]
                pieces.append(_box(tuple(piece_lo), tuple(hi)))
                hi = hi.copy()
                hi[d] = inter.hi[d]
        return [p for p in pieces if not p.empty]

    def grow(self, n) -> "Box":
        """Expand (or shrink, for negative ``n``) by ``n`` cells per side."""
        g = ivec(n) if not isinstance(n, int) else (n, n, n)
        return _box(ivec_sub(self.lo, g), ivec_add(self.hi, g))

    def shift(self, offset: Sequence[int]) -> "Box":
        o = ivec(offset)
        return _box(ivec_add(self.lo, o), ivec_add(self.hi, o))

    def coarsen(self, ratio) -> "Box":
        """Map to the coarser index space covering the same physical
        region: ``lo`` floors, ``hi`` ceils — the coarse box always
        covers the whole fine box.
        """
        r = ivec(ratio) if not isinstance(ratio, int) else (ratio, ratio, ratio)
        if any(c <= 0 for c in r):
            raise GridError(f"refinement ratio must be positive, got {r}")
        if self.empty:
            return _box(floor_div(self.lo, r), floor_div(self.lo, r))
        return _box(floor_div(self.lo, r), ceil_div(self.hi, r))

    def refine(self, ratio) -> "Box":
        """Map to the finer index space covering the same physical region."""
        r = ivec(ratio) if not isinstance(ratio, int) else (ratio, ratio, ratio)
        if any(c <= 0 for c in r):
            raise GridError(f"refinement ratio must be positive, got {r}")
        return _box(ivec_mul(self.lo, r), ivec_mul(self.hi, r))

    # ------------------------------------------------------------------
    # numpy interop
    # ------------------------------------------------------------------
    def slices(self, origin: Sequence[int] = (0, 0, 0)) -> Tuple[slice, slice, slice]:
        """Slices addressing this box inside an array anchored at ``origin``.

        The caller guarantees the array actually covers the box;
        :meth:`contains_box` on the array's box is the check.
        """
        o = ivec(origin)
        return (
            slice(self.lo[0] - o[0], self.hi[0] - o[0]),
            slice(self.lo[1] - o[1], self.hi[1] - o[1]),
            slice(self.lo[2] - o[2], self.hi[2] - o[2]),
        )

    def overlap_slices(self, other: "Box"):
        """Where ``self ∩ other`` sits: ``(its slices in an array over
        other, its slices in an array over self)``, or ``None`` when the
        boxes do not meet — :meth:`intersect` and both :meth:`slices` in
        one step, spelled out on the corners because every ghost gather
        pastes through it."""
        (a0, a1, a2), (b0, b1, b2) = self.lo, self.hi
        (c0, c1, c2), (d0, d1, d2) = other.lo, other.hi
        lo0, lo1, lo2 = (a0 if a0 > c0 else c0), (a1 if a1 > c1 else c1), (a2 if a2 > c2 else c2)
        hi0, hi1, hi2 = (b0 if b0 < d0 else d0), (b1 if b1 < d1 else d1), (b2 if b2 < d2 else d2)
        if hi0 <= lo0 or hi1 <= lo1 or hi2 <= lo2:
            return None
        return (
            (slice(lo0 - c0, hi0 - c0), slice(lo1 - c1, hi1 - c1), slice(lo2 - c2, hi2 - c2)),
            (slice(lo0 - a0, hi0 - a0), slice(lo1 - a1, hi1 - a1), slice(lo2 - a2, hi2 - a2)),
        )

    def cells(self) -> Iterator[IntVec]:
        """Iterate all cell indices (x fastest-varying last, C order)."""
        for i in range(self.lo[0], self.hi[0]):
            for j in range(self.lo[1], self.hi[1]):
                for k in range(self.lo[2], self.hi[2]):
                    yield (i, j, k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({self.lo} -> {self.hi})"
