"""The public RMCRT façade.

:class:`RMCRTSolver` is the library's front door: hand it a grid and a
property bundle (or let it build the Burns & Christon benchmark) and it
dispatches to the single- or multi-level solver by grid shape.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.grid import Grid
from repro.core.kernels import TraceOptions
from repro.core.multi_level import MultiLevelRMCRT
from repro.core.single_level import RMCRTResult, SingleLevelRMCRT
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError


class RMCRTSolver:
    """Dispatching solver: single-level for 1-level grids, data-onion
    multi-level otherwise.

    The keywords are :class:`~repro.core.kernels.TraceOptions`'s, the
    one block of Uintah's RMCRT spec, held as ``self.options``; ``seed``
    and ``backend`` stay beside them.
    """

    def __init__(self, *, seed: int = 0, backend: str = "vectorized", **options) -> None:
        self.seed = int(seed)
        self.backend = backend
        self.options = TraceOptions(**options)

    def solve(self, grid: Grid, props: RadiativeProperties) -> RMCRTResult:
        """Compute del.q on the finest level of ``grid``."""
        if grid.num_levels == 1:
            inner = SingleLevelRMCRT(seed=self.seed, backend=self.backend, **vars(self.options))
        else:
            if self.backend != "vectorized":
                raise ReproError(
                    "the scalar reference backend only supports single-level grids"
                )
            inner = MultiLevelRMCRT(seed=self.seed, **vars(self.options))
        return inner.solve(grid, props)

    def solve_benchmark(
        self,
        benchmark: Optional[BurnsChristonBenchmark] = None,
        resolution: int = 41,
        levels: int = 1,
        refinement_ratio: int = 4,
        fine_patch_size: Optional[int] = None,
    ) -> RMCRTResult:
        """One-call Burns & Christon solve (quickstart path)."""
        bench = benchmark or BurnsChristonBenchmark(resolution=resolution)
        if levels == 1:
            grid = bench.single_level_grid(patch_size=fine_patch_size)
        elif levels == 2:
            grid = bench.two_level_grid(
                refinement_ratio=refinement_ratio,
                fine_patch_size=fine_patch_size,
            )
        else:
            raise ReproError(f"benchmark supports 1 or 2 levels, got {levels}")
        props = bench.properties_for_level(grid.finest_level)
        return self.solve(grid, props)
