#!/usr/bin/env python
"""Coupled CFD + radiation on a miniature boiler.

The CCMSC production shape at laptop scale: ARCHES-lite advances the
thermal energy equation of a hot-core boiler while multi-level RMCRT
periodically recomputes the radiative source (time-scale separation),
then a virtual radiometer reports the incident heat flux on the water
walls — the boiler designer's quantity of interest.

Run:  python examples/boiler_coupled.py
"""

import numpy as np

from repro import BoilerScenario, CoupledSimulation, VirtualRadiometer
from repro.core import LevelFields


def main() -> None:
    scenario = BoilerScenario(
        resolution=24,
        peak_temperature=1800.0,
        wall_temperature=600.0,
    )
    sim = CoupledSimulation(
        scenario,
        rays_per_cell=16,
        radiation_interval=4,
        advect=True,
    )
    steps = 12
    print(f"Running {steps} coupled steps on a {scenario.resolution}^3 boiler ...")
    result = sim.run(steps)

    h = result.mean_temperature_history
    print(f"radiation solves: {result.radiation_solves}")
    print(f"mean gas temperature: {h[0]:.1f} K -> {h[-1]:.1f} K")
    print(f"radiation: {result.radiation_time_s:.3f} s   "
          f"energy: {result.energy_time_s:.3f} s")

    # wall heat flux from the final state
    level = sim.level
    props = scenario.properties_from_temperature(level, result.temperature)
    fields = LevelFields.from_properties(level, props)
    radiometer = VirtualRadiometer(rays_per_face=64, seed=7)
    fluxes = radiometer.all_walls(fields)
    print("\nIncident radiative flux on the walls [W/m^2]:")
    names = {0: "x", 1: "y", 2: "z"}
    for (axis, side), q in sorted(fluxes.items()):
        wall = f"{names[axis]}{'-' if side == 0 else '+'}"
        print(f"  wall {wall}: mean {q.mean():12.1f}   peak {q.max():12.1f}")

    core = np.unravel_index(result.divq.argmax(), result.divq.shape)
    print(f"\npeak del.q {result.divq.max():,.0f} W/m^3 at cell {core} (flame core)")


if __name__ == "__main__":
    main()
