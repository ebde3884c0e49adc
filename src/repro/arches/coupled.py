"""The coupled CFD + radiation driver.

Reproduces the production loop of Section III.A: ARCHES advances the
energy equation every timestep; every ``radiation_interval`` steps the
temperature field is handed to RMCRT, which returns a fresh div(q_r)
that is then held frozen in the energy source until the next radiation
solve — the time-scale separation that makes the (expensive) radiation
solve affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arches.boiler import BoilerScenario
from repro.arches.energy import EnergyEquation
from repro.core.solver import RMCRTSolver
from repro.util.errors import ReproError


@dataclass
class CoupledResult:
    temperature: np.ndarray
    divq: np.ndarray
    times: List[float]
    mean_temperature_history: List[float]
    radiation_solves: int
    radiation_time_s: float          #: wall seconds in the radiation solves
    energy_time_s: float             #: wall seconds in the energy steps


class CoupledSimulation:
    """Energy transport + RMCRT radiation on a boiler scenario."""

    def __init__(
        self,
        scenario: Optional[BoilerScenario] = None,
        rays_per_cell: int = 16,
        radiation_interval: int = 5,
        rho_cv: float = 5e4,
        conductivity: float = 1.0,
        rk_order: int = 2,
        seed: int = 0,
        advect: bool = True,
    ) -> None:
        if radiation_interval < 1:
            raise ReproError("radiation_interval must be >= 1")
        self.scenario = scenario if scenario is not None else BoilerScenario()
        self.grid = self.scenario.grid()
        self.level = self.grid.finest_level
        self.radiation_interval = int(radiation_interval)
        self.advect = bool(advect)
        self.energy = EnergyEquation(
            dx=self.level.dx,
            rho_cv=rho_cv,
            conductivity=conductivity,
            rk_order=rk_order,
            bc="fixed",
            wall_temperature=self.scenario.wall_temperature,
        )
        self.solver = RMCRTSolver(rays_per_cell=rays_per_cell, seed=seed, halo=2)

    def run(self, num_steps: int, dt: Optional[float] = None) -> CoupledResult:
        temperature = self.scenario.temperature_field(self.level)
        velocity = self.scenario.velocity_field(self.level) if self.advect else None
        if dt is None:
            dt = self.energy.stable_dt(velocity)
        divq = np.zeros_like(temperature)
        history: List[float] = []
        times: List[float] = []
        solves = 0
        t = radiation_time_s = energy_time_s = 0.0
        for step in range(num_steps):
            if step % self.radiation_interval == 0:
                t0 = time.perf_counter()
                props = self.scenario.properties_from_temperature(
                    self.level, temperature
                )
                divq = self.solver.solve(self.grid, props).divq
                radiation_time_s += time.perf_counter() - t0
                solves += 1
            t0 = time.perf_counter()
            temperature = self.energy.step(
                temperature, dt, velocity=velocity, divq=divq
            )
            energy_time_s += time.perf_counter() - t0
            t += dt
            times.append(t)
            history.append(float(temperature.mean()))
        return CoupledResult(
            temperature=temperature,
            divq=divq,
            times=times,
            mean_temperature_history=history,
            radiation_solves=solves,
            radiation_time_s=radiation_time_s,
            energy_time_s=energy_time_s,
        )
