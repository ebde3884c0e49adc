"""Grid variables: array data bound to index-space regions.

:class:`CCVariable` is a cell-centred field over a box (possibly a
patch interior grown by ghost cells); :class:`ReductionVariable`
carries a scalar and its combining operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.grid.box import Box
from repro.util.errors import DataWarehouseError


class CCVariable:
    """A cell-centred array anchored at ``box.lo``."""

    def __init__(self, box: Box, data: np.ndarray = None, dtype=np.float64) -> None:
        if box.empty:
            raise DataWarehouseError(f"CCVariable over empty box {box}")
        self.box = box
        if data is None:
            self.data = np.zeros(box.extent, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.shape != box.extent:
                raise DataWarehouseError(
                    f"data shape {data.shape} != box extent {box.extent}"
                )
            self.data = data

    def view(self, region: Box) -> np.ndarray:
        """Array view of ``region`` (must be inside this variable's box)."""
        if not self.box.contains_box(region):
            raise DataWarehouseError(f"region {region} outside variable box {self.box}")
        return self.data[region.slices(origin=self.box.lo)]

    def copy_region_from(self, other: "CCVariable", region: Box) -> None:
        """Copy ``region`` (must lie in both variables) from ``other``."""
        self.view(region)[...] = other.view(region)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def copy(self) -> "CCVariable":
        return CCVariable(self.box, self.data.copy())


_REDUCTION_OPS: Dict[str, Callable] = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
}


@dataclass
class ReductionVariable:
    """A scalar plus its combiner (sum/min/max)."""

    value: float
    op: str = "sum"

    def __post_init__(self) -> None:
        if self.op not in _REDUCTION_OPS:
            raise DataWarehouseError(
                f"unknown reduction op {self.op!r} (use {sorted(_REDUCTION_OPS)})"
            )

    def combine(self, other: "ReductionVariable") -> "ReductionVariable":
        if other.op != self.op:
            raise DataWarehouseError(
                f"cannot combine reduction ops {self.op!r} and {other.op!r}"
            )
        return ReductionVariable(_REDUCTION_OPS[self.op](self.value, other.value), self.op)
