"""The accuracy instrument for radiation solutions.

The accuracy study of paper §III.C (via ref [3], our E4) is built from
it: the RMS error against a reference, swept over ray counts, and the
fitted Monte Carlo convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.util.errors import ReproError


def rms_error(field: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square pointwise error."""
    f, r = np.asarray(field), np.asarray(reference)
    if f.shape != r.shape:
        raise ReproError(f"shape mismatch {f.shape} vs {r.shape}")
    return float(np.sqrt(np.mean((f - r) ** 2)))


@dataclass
class ConvergenceStudy:
    """Error vs a work parameter (rays/cell, resolution, ordinates).

    ``order`` is the fitted log-log slope; for Monte Carlo ray counts
    the expected value is -1/2, for second-order spatial schemes vs
    resolution it is -2, etc.
    """

    parameters: List[float]
    errors: List[float]

    def __post_init__(self) -> None:
        if len(self.parameters) != len(self.errors) or len(self.errors) < 2:
            raise ReproError("need >= 2 matching (parameter, error) pairs")
        if any(p <= 0 for p in self.parameters) or any(e <= 0 for e in self.errors):
            raise ReproError("parameters and errors must be positive for a "
                             "log-log fit")

    @property
    def order(self) -> float:
        return float(
            np.polyfit(np.log(self.parameters), np.log(self.errors), 1)[0]
        )


def monte_carlo_convergence(
    solve: Callable[[int], np.ndarray],
    reference: np.ndarray,
    ray_counts: Sequence[int],
) -> ConvergenceStudy:
    """Run ``solve(rays)`` over ``ray_counts`` and fit the decay of its
    RMS error against ``reference``."""
    if len(ray_counts) < 2:
        raise ReproError("need >= 2 ray counts")
    errors = [rms_error(solve(int(n)), reference) for n in ray_counts]
    return ConvergenceStudy(parameters=[float(n) for n in ray_counts], errors=errors)
