"""Packaged spectral radiation scenarios.

Named, fully-specified cases the CLI, tests, and EXPERIMENTS pages run
by name — each one pairs a scene (a Burns & Christon variant or a box
enclosure) with a :class:`SpectralModel`:

* ``gray-limit`` — the classic cold-black-wall Burns & Christon cube
  under the degenerate one-band model; the spectral tracer must
  reproduce the gray solver **bit-for-bit** here (CI smoke-checks it).
* ``combustion-3band`` — three equal-Planck bands with a wavelength
  power-law kappa (long wavelengths optically thick, the CO2/H2O
  shape); same scene, genuinely spectral transport.
* ``hot-wall-tungsten`` — hot gray-emissive walls with the tungsten
  emissivity table modulating them per band, the case where tabulated
  emissivity actually changes the answer (cold black walls make any
  table inert).
* ``enclosure`` — the surface-to-surface view-factor scenario (no
  participating medium): a unit-cube enclosure, one hot face, spectral
  ceramic walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.single_level import SingleLevelRMCRT
from repro.grid.grid import Grid
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.properties import RadiativeProperties
from repro.radiation.spectral.model import SpectralModel
from repro.radiation.spectral.viewfactor import EnclosureScenario
from repro.util.errors import ReproError


@dataclass
class SpectralCase:
    """A volume-tracing spectral scenario: a Burns & Christon variant
    plus the spectral model to trace it under.

    ``wall_temperature``/``wall_emissivity`` override the benchmark's
    cold black walls — hot walls are what make emissivity tables (and
    the spectral wall treatment generally) observable.
    """

    name: str
    model: SpectralModel
    resolution: int = 16
    rays_per_cell: int = 16
    wall_temperature: float = 0.0
    wall_emissivity: float = 1.0
    threshold: float = 1e-4
    seed: int = 0

    def prepare(self) -> Tuple[Grid, RadiativeProperties]:
        bench = BurnsChristonBenchmark(resolution=self.resolution)
        grid = bench.single_level_grid()
        level = grid.finest_level
        props = RadiativeProperties.from_fields(
            level.domain_box,
            abskg=bench.abskg_field(level),
            sigma_t4=np.ones(level.domain_box.extent),
            wall_temperature=self.wall_temperature,
            wall_emissivity=self.wall_emissivity,
        )
        return grid, props

    def tracer(self, backend: str = "vectorized") -> SingleLevelRMCRT:
        """The gray solver, made spectral by the case's model."""
        return SingleLevelRMCRT(
            rays_per_cell=self.rays_per_cell,
            threshold=self.threshold,
            seed=self.seed,
            backend=backend,
            spectral=self.model,
        )

    def solve(self, backend: str = "vectorized"):
        grid, props = self.prepare()
        return self.tracer(backend).solve(grid, props)


def _gray_limit_case() -> SpectralCase:
    return SpectralCase(name="gray-limit", model=SpectralModel.gray_limit())


def _combustion_case() -> SpectralCase:
    return SpectralCase(
        name="combustion-3band",
        model=SpectralModel.build(
            bands=3, temperature=1400.0, kappa_exponent=0.8,
            name="combustion-3band",
        ),
    )


def _hot_wall_case() -> SpectralCase:
    return SpectralCase(
        name="hot-wall-tungsten",
        model=SpectralModel.build(
            bands=4, temperature=1200.0, kappa_exponent=0.4,
            emissivity="tungsten", name="hot-wall-tungsten",
        ),
        wall_temperature=0.6,   # benchmark units: sigma T^4 = 0.36 per band sum
        wall_emissivity=0.8,
    )


def _enclosure_case() -> EnclosureScenario:
    return EnclosureScenario(
        model=SpectralModel.build(
            bands=3, temperature=1200.0, emissivity="ceramic",
            name="enclosure-ceramic",
        ),
    )


#: scenario registry: name -> zero-arg factory. Factories (not
#: instances) so each lookup gets fresh, mutation-safe state.
SCENARIOS: Dict[str, Callable[[], object]] = {
    "gray-limit": _gray_limit_case,
    "combustion-3band": _combustion_case,
    "hot-wall-tungsten": _hot_wall_case,
    "enclosure": _enclosure_case,
}


def get_scenario(name: str):
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown spectral scenario {name!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return factory()
