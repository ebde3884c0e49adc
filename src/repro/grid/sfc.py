"""Space-filling curves for locality-preserving patch ordering.

Uintah's load balancer orders patches along a space-filling curve and
cuts the curve into contiguous, cost-balanced chunks, one per rank
(Luitjens & Berzins, IPDPS'10). We provide 3-D Morton (Z-order) and
Hilbert encodings; both are exact bijections on ``[0, 2^bits)**3``,
Hilbert with strictly unit-step adjacency.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _part1by2(n: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value 3 apart (vectorized)."""
    n = n.astype(np.uint64) & np.uint64(0x1FFFFF)
    n = (n | (n << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    n = (n | (n << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    n = (n | (n << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    n = (n | (n << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    n = (n | (n << np.uint64(2))) & np.uint64(0x1249249249249249)
    return n


def _compact1by2(n: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`."""
    n = n.astype(np.uint64) & np.uint64(0x1249249249249249)
    n = (n ^ (n >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    n = (n ^ (n >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    n = (n ^ (n >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    n = (n ^ (n >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    n = (n ^ (n >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return n


def morton_encode(x, y, z) -> np.ndarray:
    """Morton key(s) for non-negative coordinates below 2^21."""
    x, y, z = (np.asarray(v, dtype=np.uint64) for v in (x, y, z))
    return _part1by2(x) | (_part1by2(y) << np.uint64(1)) | (_part1by2(z) << np.uint64(2))


def _spread(n: int) -> int:
    """:func:`_part1by2` of one plain int."""
    n &= 0x1FFFFF
    n = (n | (n << 32)) & 0x1F00000000FFFF
    n = (n | (n << 16)) & 0x1F0000FF0000FF
    n = (n | (n << 8)) & 0x100F00F00F00F00F
    n = (n | (n << 4)) & 0x10C30C30C30C30C3
    return (n | (n << 2)) & 0x1249249249249249


def morton_key(x: int, y: int, z: int) -> int:
    """:func:`morton_encode` of one point, in plain ints: for the few
    patch centroids of a load-balancing pass, where NumPy's per-call cost
    outweighs the work."""
    return _spread(x) | (_spread(y) << 1) | (_spread(z) << 2)


def morton_decode(key) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.asarray(key, dtype=np.uint64)
    return (
        _compact1by2(k),
        _compact1by2(k >> np.uint64(1)),
        _compact1by2(k >> np.uint64(2)),
    )


# ----------------------------------------------------------------------
# Hilbert curve (3-D, per-point transform; patch counts are modest so a
# Python loop over bits is acceptable)
# ----------------------------------------------------------------------
def hilbert_encode(point: Sequence[int], bits: int) -> int:
    """Hilbert index of a 3-D point on a ``2^bits`` cube (Skilling 2004)."""
    x = [int(point[0]), int(point[1]), int(point[2])]
    n = 3
    m = 1 << (bits - 1)
    # inverse undo of the Skilling transform
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # gray encode
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    # interleave transposed bits into a single index
    h = 0
    for b in range(bits - 1, -1, -1):
        for i in range(n):
            h = (h << 1) | ((x[i] >> b) & 1)
    return h


def hilbert_decode(h: int, bits: int) -> Tuple[int, int, int]:
    """Inverse of :func:`hilbert_encode`."""
    n = 3
    x = [0, 0, 0]
    # de-interleave
    pos = n * bits
    for b in range(bits - 1, -1, -1):
        for i in range(n):
            pos -= 1
            x[i] |= ((h >> pos) & 1) << b
    # Skilling inverse: gray decode
    m = 1 << bits
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # undo excess work
    q = 2
    while q != m:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return (x[0], x[1], x[2])


def curve_order(points: np.ndarray, curve: str = "morton") -> np.ndarray:
    """Permutation sorting integer points along the chosen curve.

    ``points`` is ``(n, 3)`` non-negative integers. Returns indices such
    that ``points[order]`` walks the curve.
    """
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {pts.shape}")
    if np.any(pts < 0):
        raise ValueError("curve ordering requires non-negative coordinates")
    if curve == "morton":
        keys = morton_encode(pts[:, 0], pts[:, 1], pts[:, 2])
        return np.argsort(keys, kind="stable")
    if curve == "hilbert":
        span = int(pts.max()) + 1 if pts.size else 1
        bits = max(1, int(np.ceil(np.log2(max(2, span)))))
        keys = np.array(
            [hilbert_encode(p, bits) for p in pts], dtype=np.uint64
        )
        return np.argsort(keys, kind="stable")
    raise ValueError(f"unknown curve {curve!r} (use 'morton' or 'hilbert')")
