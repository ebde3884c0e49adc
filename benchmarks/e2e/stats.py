"""Percentiles, the calibrated clock and run-to-run spread.

Pure Python on purpose: ``run.py`` and ``agree.py`` import this without
paying for numpy.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half (interquartile mean). As deaf to a burst
    as the median, but smooth where times are quantised: the median of
    spool misses that land on 150 or 200 ms flips between the two."""
    if not values:
        raise ValueError("midmean of no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """p50, p90 and the sample count they were taken over."""
    return {
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "n": len(values),
    }


def calibrate(
    wall: Sequence[float], ref: Sequence[float], ref_nominal: float
) -> List[float]:
    """Op times on the nominal machine.

    ``ref`` holds ``len(wall) + 1`` reference-kernel timings: ``ref[i]``
    was taken just before op ``i`` and ``ref[i + 1]`` just after, so
    consecutive ops share the timing between them.
    """
    if len(ref) != len(wall) + 1:
        raise ValueError(f"need {len(wall) + 1} reference timings, got {len(ref)}")
    return [
        w * ref_nominal / (0.5 * (ref[i] + ref[i + 1])) for i, w in enumerate(wall)
    ]


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread the
    acceptance rule compares with a metric's bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
