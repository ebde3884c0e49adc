"""The public RMCRT façade.

:class:`RMCRTSolver` is the library's front door: hand it a grid and a
property bundle (or let it build the Burns & Christon benchmark) and it
dispatches to the single- or multi-level solver by grid shape.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.grid import Grid
from repro.core.multi_level import MultiLevelRMCRT
from repro.core.single_level import RMCRTResult, SingleLevelRMCRT
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError


class RMCRTSolver:
    """Dispatching solver: single-level for 1-level grids, data-onion
    multi-level otherwise.

    Parameters mirror Uintah's RMCRT spec: ``rays_per_cell`` (nDivQRays),
    ``threshold`` (ray termination transmissivity), ``halo`` (fine-level
    ROI margin), ``reflections`` (non-black walls), and ``seed``; a
    ``spectral`` model makes either solve wavelength-sampled.
    """

    def __init__(
        self,
        rays_per_cell: int = 25,
        threshold: float = 1e-4,
        seed: int = 0,
        halo: int = 4,
        reflections: bool = False,
        centered_origins: bool = False,
        backend: str = "vectorized",
        spectral=None,
    ) -> None:
        self.rays_per_cell = int(rays_per_cell)
        self.threshold = float(threshold)
        self.seed = int(seed)
        self.halo = int(halo)
        self.reflections = bool(reflections)
        self.centered_origins = bool(centered_origins)
        self.backend = backend
        self.spectral = spectral

    def solve(self, grid: Grid, props: RadiativeProperties) -> RMCRTResult:
        """Compute del.q on the finest level of ``grid``."""
        options = dict(
            rays_per_cell=self.rays_per_cell,
            threshold=self.threshold,
            seed=self.seed,
            reflections=self.reflections,
            centered_origins=self.centered_origins,
            spectral=self.spectral,
        )
        if grid.num_levels == 1:
            inner = SingleLevelRMCRT(backend=self.backend, **options)
        else:
            if self.backend != "vectorized":
                raise ReproError(
                    "the scalar reference backend only supports single-level grids"
                )
            inner = MultiLevelRMCRT(halo=self.halo, **options)
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
