"""A miniature oxy-coal boiler scenario.

The CCMSC target problem (paper Section I): a boiler box with a hot
reacting core, soot-laden gas whose absorption coefficient peaks in the
flame region, and water-wall boundaries whose incident radiative flux
is *the* quantity of interest. This module builds the fields that
scenario hands to the radiation solver — the domain is a unit cube at
laptop resolutions, but every coupling surface matches the production
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.grid.grid import Grid, build_two_level_grid
from repro.grid.level import Level
from repro.radiation.constants import SIGMA_SB
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError


@dataclass
class BoilerScenario:
    """Hot-core boiler fields on a 2-level grid."""

    resolution: int = 32
    refinement_ratio: int = 4
    peak_temperature: float = 1800.0     #: flame core [K]
    ambient_temperature: float = 600.0   #: bulk gas [K]
    wall_temperature: float = 500.0      #: water walls [K]
    soot_kappa_peak: float = 0.8         #: absorption at the flame [1/m]
    soot_kappa_floor: float = 0.05
    inlet_velocity: float = 1.0          #: axial (z) jet speed [m/s]
    #: superheater tube bank: vertical tubes in the upper quarter of the
    #: box, modelled as INTRUSION cells at tube_temperature (the solid
    #: geometry rays terminate against — "the relative simplicity of the
    #: boiler geometry" the paper's replication choice relies on)
    tube_bank: bool = False
    tube_temperature: float = 700.0
    num_tubes: int = 3

    def __post_init__(self) -> None:
        if self.peak_temperature <= self.ambient_temperature:
            raise ReproError("flame core must be hotter than the bulk gas")
        if self.tube_bank and self.num_tubes < 1:
            raise ReproError("tube bank needs >= 1 tube")

    def grid(self, fine_patch_size=None) -> Grid:
        return build_two_level_grid(
            self.resolution,
            refinement_ratio=self.refinement_ratio,
            fine_patch_size=fine_patch_size,
        )

    # ------------------------------------------------------------------
    # fields
    # ------------------------------------------------------------------
    def _centered_coords(self, level: Level):
        x, y, z = level.cell_centers()
        return (
            x[:, None, None] - 0.5,
            y[None, :, None] - 0.5,
            z[None, None, :],
        )

    def temperature_field(self, level: Level) -> np.ndarray:
        """A rising-plume hot core: Gaussian in radius, peaking at
        1/3 height and decaying toward the outlet."""
        xc, yc, z = self._centered_coords(level)
        r2 = xc ** 2 + yc ** 2
        axial = np.exp(-((z - 0.33) ** 2) / (2 * 0.25 ** 2))
        core = np.exp(-r2 / (2 * 0.15 ** 2)) * axial
        return self.ambient_temperature + (
            self.peak_temperature - self.ambient_temperature
        ) * core

    def kappa_field(self, level: Level) -> np.ndarray:
        """Soot loading tracks the flame: kappa peaks where T does."""
        t = self.temperature_field(level)
        norm = (t - self.ambient_temperature) / (
            self.peak_temperature - self.ambient_temperature
        )
        return self.soot_kappa_floor + (
            self.soot_kappa_peak - self.soot_kappa_floor
        ) * norm

    def velocity_field(self, level: Level) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An axial jet through the core, swirling weakly."""
        xc, yc, _ = self._centered_coords(level)
        r2 = xc ** 2 + yc ** 2
        jet = self.inlet_velocity * np.exp(-r2 / (2 * 0.2 ** 2))
        w = jet * np.ones(level.domain_box.extent[2])[None, None, :]
        swirl = 0.1 * self.inlet_velocity
        u = -swirl * yc * np.ones_like(w)
        v = swirl * xc * np.ones_like(w)
        return u, v, w

    def tube_regions(self, level: Level):
        """Index-space boxes of the tube bank on a level."""
        if not self.tube_bank:
            return []
        n = level.domain_box.extent[0]
        width = max(1, n // 16)
        z_lo, z_hi = int(0.70 * n), min(n, int(0.70 * n) + max(2, n // 4))
        tubes = []
        for t in range(self.num_tubes):
            cx = int((t + 1) * n / (self.num_tubes + 1))
            tubes.append(
                Box(
                    (cx - width // 2, n // 2 - width // 2, z_lo),
                    (cx - width // 2 + width, n // 2 - width // 2 + width, z_hi),
                ).intersect(level.domain_box)
            )
        return tubes

    def _apply_tubes(self, props: RadiativeProperties, level: Level) -> None:
        tube_st4 = SIGMA_SB * self.tube_temperature ** 4
        for region in self.tube_regions(level):
            if region.empty:
                continue
            sl = region.slices(origin=props.origin)
            props.cell_type[sl] = CellType.INTRUSION
            props.sigma_t4[sl] = tube_st4
            props.abskg[sl] = 1.0  # black tube surfaces (emissivity)

    def radiative_properties(self, level: Level) -> RadiativeProperties:
        props = RadiativeProperties.from_fields(
            level.domain_box,
            abskg=self.kappa_field(level),
            temperature=self.temperature_field(level),
            wall_temperature=self.wall_temperature,
            wall_emissivity=1.0,
        )
        self._apply_tubes(props, level)
        return props

    def properties_from_temperature(
        self, level: Level, temperature: np.ndarray
    ) -> RadiativeProperties:
        """Rebuild the radiation inputs from an evolved T field (the
        per-radiation-solve coupling step)."""
        props = RadiativeProperties.from_fields(
            level.domain_box,
            abskg=self.kappa_field(level),
            temperature=temperature,
            wall_temperature=self.wall_temperature,
            wall_emissivity=1.0,
        )
        self._apply_tubes(props, level)
        return props
