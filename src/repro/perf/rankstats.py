"""Per-rank runtime-stats reduction, Uintah-style.

At scale nobody reads 16,384 individual rank reports: Uintah reduces
every runtime statistic across ranks and prints ``min (on rank a) /
mean / max (on rank b)`` — the max/mean ratio is the load-imbalance
signal and the argmax rank is where to look. This module is that
reduction for any per-rank mapping of numeric stats (the distributed
scheduler's :class:`~repro.runtime.scheduler.RankStats`, the simulated
fabric's per-rank message counts, or the trace simulator's rank
timelines).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, Mapping, Union

Number = Union[int, float]


@dataclass
class StatSummary:
    """One statistic reduced across ranks."""

    name: str
    min: float
    max: float
    mean: float
    total: float
    min_rank: int
    max_rank: int
    ranks: int

    @property
    def imbalance(self) -> float:
        """max/mean — 1.0 is perfectly balanced.

        A single rank is balanced by definition. A non-positive mean
        has no meaningful ratio: all-zero stats are balanced (1.0),
        while a positive max over a zero/negative mean (one rank did
        all the work, others cancelled it out) reports the worst case,
        ``ranks`` — the ratio a one-rank-does-everything distribution
        would produce.
        """
        if self.ranks <= 1:
            return 1.0
        if self.mean > 0:
            return self.max / self.mean
        return 1.0 if self.max <= 0 else float(self.ranks)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "total": self.total,
            "min_rank": self.min_rank,
            "max_rank": self.max_rank,
            "ranks": self.ranks,
            "imbalance": self.imbalance,
        }


def _numeric_items(stats: object) -> Dict[str, Number]:
    """Numeric fields of a per-rank record (dataclass or mapping),
    excluding the rank id itself."""
    if is_dataclass(stats) and not isinstance(stats, type):
        items = {f.name: getattr(stats, f.name) for f in fields(stats)}
    elif isinstance(stats, Mapping):
        items = dict(stats)
    else:
        raise TypeError(f"cannot reduce per-rank record of type {type(stats)}")
    return {
        k: v
        for k, v in items.items()
        if k != "rank" and isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def reduce_rank_stats(per_rank: Mapping[int, object]) -> Dict[str, StatSummary]:
    """Reduce ``{rank: record}`` to ``{stat_name: StatSummary}``.

    Records may be dataclasses (e.g. ``RankStats``) or plain mappings;
    every numeric field present on any rank is reduced, with missing
    entries treated as 0 so ragged mappings (a rank that never sent a
    message) still reduce.
    """
    if not per_rank:
        return {}
    numeric = {rank: _numeric_items(rec) for rank, rec in per_rank.items()}
    names = sorted({name for items in numeric.values() for name in items})
    n = len(numeric)
    out: Dict[str, StatSummary] = {}
    for name in names:
        values = {rank: float(items.get(name, 0.0)) for rank, items in numeric.items()}
        min_rank = min(values, key=lambda r: (values[r], r))
        max_rank = max(values, key=lambda r: (values[r], -r))
        total = sum(values.values())
        out[name] = StatSummary(
            name=name,
            min=values[min_rank],
            max=values[max_rank],
            mean=total / n,
            total=total,
            min_rank=min_rank,
            max_rank=max_rank,
            ranks=n,
        )
    return out


def format_rank_stats(
    summaries: Mapping[str, StatSummary], title: str = "Runtime Stats"
) -> str:
    """Uintah's reduced runtime-stats table::

        Runtime Stats (4 ranks)
        stat                    min (rank)        mean         max (rank)       total
        task_exec_time       0.01231 (r2)      0.01502     0.01846 (r1)      0.06008
    """
    rows = sorted(summaries.values(), key=lambda s: s.name)
    ranks = rows[0].ranks if rows else 0
    lines = [
        f"{title} ({ranks} ranks)",
        f"{'stat':<24}{'min (rank)':>18}{'mean':>12}{'max (rank)':>18}{'total':>12}",
    ]
    for s in rows:
        min_cell = f"{s.min:.5g} (r{s.min_rank})"
        max_cell = f"{s.max:.5g} (r{s.max_rank})"
        lines.append(
            f"{s.name:<24}{min_cell:>18}{s.mean:>12.5g}{max_cell:>18}"
            f"{s.total:>12.5g}"
        )
    return "\n".join(lines)


def publish_rank_stats(
    registry,
    per_rank: Mapping[int, object],
    prefix: str,
    **labels,
) -> Dict[str, StatSummary]:
    """Publish both the raw per-rank values (gauges labelled by rank)
    and their reduction (min/mean/max/total gauges) into ``registry``;
    returns the reduction."""
    for rank, rec in per_rank.items():
        for name, value in _numeric_items(rec).items():
            registry.gauge(f"{prefix}.{name}", rank=rank, **labels).set(value)
    summaries = reduce_rank_stats(per_rank)
    for name, s in summaries.items():
        for agg in ("min", "mean", "max", "total"):
            registry.gauge(f"{prefix}.{name}.{agg}", **labels).set(getattr(s, agg))
    return summaries
